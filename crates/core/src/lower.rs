//! Lowering of compiled programs to the `raa-isa` instruction stream.
//!
//! The router's stage schedule is an in-memory structure; [`emit_isa`]
//! flattens it into the serializable, independently-verifiable
//! instruction stream of the `raa_isa` crate. The mapping is direct:
//!
//! | Stage kind          | Instructions                                        |
//! |---------------------|-----------------------------------------------------|
//! | `OneQubit`          | one `RamanLayer`                                    |
//! | `Movement`          | `MoveRow`/`MoveCol`/`Unpark`, `RydbergPulse`, then the retraction moves |
//! | `Reset`             | one `Park` keeping the stage's kept AODs            |
//! | `TransferAssisted`  | one `Transfer`                                      |
//! | `Cooling`           | one `Cool`                                          |
//!
//! A `Movement` stage emits exactly one `RydbergPulse` whatever its
//! size, with its `Unpark` markers where the router listed them in the
//! move group. The ISA optimizer keeps every pulse; it fuses and deletes
//! moves and elides parks, and the checker's machine model handles an
//! `Unpark` wherever it sits.
//!
//! The emitted program embeds the transpiled slot-level circuit as its
//! reference, so `raa_isa::replay_verify` can prove gate-set
//! equivalence without trusting any router bookkeeping.

use raa_arch::{ArrayIndex, RaaConfig};
use raa_isa::{Instr, IsaProgram, ProgramHeader, SiteSpec, FORMAT_VERSION};

use crate::program::{CompiledProgram, LineMove, StageKind};

fn line_move_instr(mv: &LineMove, retract: bool) -> Instr {
    if mv.axis_row {
        Instr::MoveRow {
            aod: mv.aod,
            row: mv.line,
            from: mv.from_track,
            to: mv.to_track,
            retract,
        }
    } else {
        Instr::MoveCol {
            aod: mv.aod,
            col: mv.line,
            from: mv.from_track,
            to: mv.to_track,
            retract,
        }
    }
}

/// Lowers `program` (compiled for `hw`) into an instruction stream
/// named `name`.
///
/// The result carries everything a consumer needs: the machine
/// declaration, the atom loading map, the logical-qubit placement, the
/// reference circuit and the flat stream. Verify it with
/// [`raa_isa::check_legality`] and [`raa_isa::replay_verify`], or let
/// [`compile`](crate::compile) do both via
/// [`AtomiqueConfig::verify_isa`](crate::AtomiqueConfig).
pub fn emit_isa(program: &CompiledProgram, hw: &RaaConfig, name: &str) -> IsaProgram {
    let mut instrs: Vec<Instr> = vec![Instr::InitSlm {
        rows: hw.slm.rows as u16,
        cols: hw.slm.cols as u16,
    }];
    for k in 0..hw.num_aods() {
        let aod = ArrayIndex::aod(k);
        let dims = hw.dims(aod);
        instrs.push(Instr::InitAod {
            aod: k as u8,
            rows: dims.rows as u16,
            cols: dims.cols as u16,
            fx: hw.home_x(aod, 0) / hw.spacing_um,
            fy: hw.home_y(aod, 0) / hw.spacing_um,
        });
    }

    for stage in &program.stages {
        match stage.kind {
            StageKind::OneQubit => {
                instrs.push(Instr::RamanLayer {
                    gates: stage.one_qubit_gates.clone(),
                });
            }
            StageKind::Movement => {
                for mv in &stage.moves {
                    if mv.line == u16::MAX {
                        instrs.push(Instr::Unpark { aod: mv.aod });
                    } else {
                        instrs.push(line_move_instr(mv, false));
                    }
                }
                instrs.push(Instr::RydbergPulse {
                    pairs: stage.gate_pairs.clone(),
                });
                for mv in &stage.retract_moves {
                    instrs.push(line_move_instr(mv, true));
                }
            }
            StageKind::Reset => {
                instrs.push(Instr::Park {
                    kept: stage.kept_aods.clone(),
                });
            }
            StageKind::TransferAssisted => {
                let (a, b) = stage.gate_pairs[0];
                instrs.push(Instr::Transfer { a, b });
            }
            StageKind::Cooling => {
                instrs.push(Instr::Cool {
                    aod: stage.cooled_aod.unwrap_or(0),
                });
            }
        }
    }

    IsaProgram {
        version: FORMAT_VERSION,
        header: ProgramHeader::new("atomique", name)
            .with_physics(hw.spacing_um, hw.rydberg_radius_um),
        slot_of_qubit: program.slot_of_qubit.clone(),
        sites: program
            .mapping
            .site_of_slot
            .iter()
            .map(|s| SiteSpec {
                array: s.array.0,
                row: s.row,
                col: s.col,
            })
            .collect(),
        reference: program.slot_circuit.clone(),
        instrs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;
    use crate::config::AtomiqueConfig;
    use raa_circuit::{Circuit, Gate, Qubit};
    use raa_isa::{check_legality, replay_verify, IsaStats};

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.push(Gate::h(Qubit(0)));
        for i in 0..n as u32 - 1 {
            c.push(Gate::cx(Qubit(i), Qubit(i + 1)));
        }
        c
    }

    #[test]
    fn emitted_stream_passes_the_oracle() {
        let cfg = AtomiqueConfig::default();
        let out = compile(&ghz(10), &cfg).unwrap();
        let isa = emit_isa(&out, &cfg.hardware, "ghz-10");
        check_legality(&isa).unwrap();
        let report = replay_verify(&isa).unwrap();
        assert_eq!(report.two_qubit_gates, out.stats.two_qubit_gates);
        assert_eq!(report.one_qubit_gates, out.stats.one_qubit_gates);
    }

    #[test]
    fn stream_stats_match_router_stats() {
        let cfg = AtomiqueConfig::default();
        let out = compile(&ghz(8), &cfg).unwrap();
        let isa = emit_isa(&out, &cfg.hardware, "ghz-8");
        let stats = IsaStats::of(&isa);
        assert_eq!(stats.two_qubit_gates, out.stats.two_qubit_gates);
        assert_eq!(stats.one_qubit_gates, out.stats.one_qubit_gates);
        assert_eq!(stats.transfers * 2, out.stats.transfers);
        assert_eq!(stats.cools, out.stats.cooling_events);
        // Pulses = stages that fired the Rydberg laser via movement.
        let movement_stages = out
            .stages
            .iter()
            .filter(|s| s.kind == StageKind::Movement)
            .count();
        assert_eq!(stats.pulses, movement_stages);
    }

    #[test]
    fn tampered_stream_fails_the_oracle() {
        let cfg = AtomiqueConfig::default();
        let out = compile(&ghz(6), &cfg).unwrap();
        let mut isa = emit_isa(&out, &cfg.hardware, "ghz-6");
        // Drop one pulsed pair: replay must notice the missing gate.
        let pulse = isa
            .instrs
            .iter_mut()
            .find_map(|i| match i {
                Instr::RydbergPulse { pairs } if !pairs.is_empty() => Some(pairs),
                _ => None,
            })
            .expect("some pulse");
        pulse.pop();
        assert!(replay_verify(&isa).is_err());

        // Shift one in-move: legality must notice the stray pair/atom.
        let mut isa = emit_isa(&out, &cfg.hardware, "ghz-6");
        let mv = isa
            .instrs
            .iter_mut()
            .find_map(|i| match i {
                Instr::MoveRow {
                    to, retract: false, ..
                } => Some(to),
                _ => None,
            })
            .expect("some in-move");
        *mv += 3.0;
        assert!(check_legality(&isa).is_err());
    }
}
