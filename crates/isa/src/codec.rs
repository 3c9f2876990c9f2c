//! The program codec: a compact, versioned binary format.
//!
//! [`to_bytes`]/[`from_bytes`] are lossless: decoding an encoded program
//! yields an equal program, and re-encoding a decoded program is
//! byte-identical. Floats are stored as raw IEEE-754 bits, so they
//! round-trip exactly (NaN and −0.0 included). Decoding is total: a
//! truncated or corrupt stream returns a [`DecodeError`], never a panic,
//! and a truncation error names the byte offset and the field being read.
//!
//! [`gate_to_json`]/[`gate_from_json`] are the per-gate JSON form of the
//! serving layer's `circuit` job field (`["cz", 0, 1]`,
//! `["rz", 3, 0.25]`); documents are parsed with [`crate::json`].
//!
//! Nothing here depends on external crates (this workspace builds
//! offline).

use raa_circuit::{Circuit, Gate, OneQubitKind, Qubit, TwoQubitKind};

use crate::error::{DecodeError, EncodeError};
use crate::json::{structure, Value};
use crate::program::{Instr, IsaProgram, ProgramHeader, SiteSpec, FORMAT_VERSION};

// ---------------------------------------------------------------------
// Binary encoding
// ---------------------------------------------------------------------

/// Magic bytes opening every binary stream.
const MAGIC: &[u8; 8] = b"RAA-ISA\0";

/// Encodes `program` in the compact binary format. Infallible: floats
/// are stored as raw IEEE-754 bits.
///
/// # Examples
///
/// ```
/// use raa_circuit::{Circuit, Gate, Qubit};
/// use raa_isa::{codec, lower_gate_schedule, ProgramHeader};
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::cz(Qubit(0), Qubit(1)));
/// let program = lower_gate_schedule(&c, &[vec![0]], ProgramHeader::new("doc", "bin"))?;
///
/// let bytes = codec::to_bytes(&program);
/// assert_eq!(&bytes[..8], b"RAA-ISA\0"); // magic
/// assert_eq!(codec::from_bytes(&bytes)?, program); // lossless round-trip
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn to_bytes(program: &IsaProgram) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, program.version);
    put_str(&mut out, &program.header.backend);
    put_str(&mut out, &program.header.name);
    put_f64(&mut out, program.header.spacing_um);
    put_f64(&mut out, program.header.rydberg_radius_um);
    put_u32(&mut out, program.slot_of_qubit.len() as u32);
    for &s in &program.slot_of_qubit {
        put_u32(&mut out, s);
    }
    put_u32(&mut out, program.sites.len() as u32);
    for site in &program.sites {
        out.push(site.array);
        put_u16(&mut out, site.row);
        put_u16(&mut out, site.col);
    }
    put_u32(&mut out, program.reference.num_qubits() as u32);
    put_u32(&mut out, program.reference.len() as u32);
    for g in program.reference.gates() {
        put_gate(&mut out, g);
    }
    put_u32(&mut out, program.instrs.len() as u32);
    for instr in &program.instrs {
        put_instr(&mut out, instr);
    }
    out
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_gate(out: &mut Vec<u8>, g: &Gate) {
    match *g {
        Gate::OneQ { kind, qubit } => {
            let (tag, params): (u8, Vec<f64>) = match kind {
                OneQubitKind::H => (0, vec![]),
                OneQubitKind::X => (1, vec![]),
                OneQubitKind::Y => (2, vec![]),
                OneQubitKind::Z => (3, vec![]),
                OneQubitKind::S => (4, vec![]),
                OneQubitKind::Sdg => (5, vec![]),
                OneQubitKind::T => (6, vec![]),
                OneQubitKind::Tdg => (7, vec![]),
                OneQubitKind::Rx(t) => (8, vec![t]),
                OneQubitKind::Ry(t) => (9, vec![t]),
                OneQubitKind::Rz(t) => (10, vec![t]),
                OneQubitKind::U(t, p, l) => (11, vec![t, p, l]),
            };
            out.push(tag);
            put_u32(out, qubit.0);
            for p in params {
                put_f64(out, p);
            }
        }
        Gate::TwoQ { kind, a, b } => {
            let (tag, param): (u8, Option<f64>) = match kind {
                TwoQubitKind::Cz => (12, None),
                TwoQubitKind::Cx => (13, None),
                TwoQubitKind::Zz(t) => (14, Some(t)),
                TwoQubitKind::Swap => (15, None),
            };
            out.push(tag);
            put_u32(out, a.0);
            put_u32(out, b.0);
            if let Some(t) = param {
                put_f64(out, t);
            }
        }
    }
}

fn put_instr(out: &mut Vec<u8>, instr: &Instr) {
    match instr {
        Instr::InitSlm { rows, cols } => {
            out.push(0);
            put_u16(out, *rows);
            put_u16(out, *cols);
        }
        Instr::InitAod {
            aod,
            rows,
            cols,
            fx,
            fy,
        } => {
            out.push(1);
            out.push(*aod);
            put_u16(out, *rows);
            put_u16(out, *cols);
            put_f64(out, *fx);
            put_f64(out, *fy);
        }
        Instr::MoveRow {
            aod,
            row,
            from,
            to,
            retract,
        } => {
            out.push(2);
            out.push(*aod);
            put_u16(out, *row);
            put_f64(out, *from);
            put_f64(out, *to);
            out.push(*retract as u8);
        }
        Instr::MoveCol {
            aod,
            col,
            from,
            to,
            retract,
        } => {
            out.push(3);
            out.push(*aod);
            put_u16(out, *col);
            put_f64(out, *from);
            put_f64(out, *to);
            out.push(*retract as u8);
        }
        Instr::Unpark { aod } => {
            out.push(4);
            out.push(*aod);
        }
        Instr::RydbergPulse { pairs } => {
            out.push(5);
            put_u32(out, pairs.len() as u32);
            for (a, b) in pairs {
                put_u32(out, *a);
                put_u32(out, *b);
            }
        }
        Instr::RamanLayer { gates } => {
            out.push(6);
            put_u32(out, gates.len() as u32);
            for g in gates {
                put_gate(out, g);
            }
        }
        Instr::Transfer { a, b } => {
            out.push(7);
            put_u32(out, *a);
            put_u32(out, *b);
        }
        Instr::Cool { aod } => {
            out.push(8);
            out.push(*aod);
        }
        Instr::Park { kept } => {
            out.push(9);
            put_u32(out, kept.len() as u32);
            out.extend_from_slice(kept);
        }
    }
}

// ---------------------------------------------------------------------
// Binary decoding
// ---------------------------------------------------------------------

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Reads `n` bytes for the field named by `context`. On truncation
    /// the error carries the read position and the field name, so a
    /// client can see *where* an untrusted stream went bad.
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], DecodeError> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + n)
            .ok_or(DecodeError::UnexpectedEnd {
                offset: self.pos,
                context,
            })?;
        self.pos += n;
        Ok(chunk)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, context)?[0])
    }

    fn u16(&mut self, context: &'static str) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(
            self.take(2, context)?.try_into().unwrap(),
        ))
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().unwrap(),
        ))
    }

    fn f64(&mut self, context: &'static str) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8, context)?.try_into().unwrap(),
        )))
    }

    fn str(&mut self, context: &'static str) -> Result<String, DecodeError> {
        let len = self.u32(context)? as usize;
        let start = self.pos;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8 { offset: start })
    }

    fn gate(&mut self) -> Result<Gate, DecodeError> {
        let tag_offset = self.pos;
        let tag = self.u8("gate tag")?;
        Ok(match tag {
            0..=11 => {
                let q = Qubit(self.u32("gate qubit")?);
                match tag {
                    0 => Gate::h(q),
                    1 => Gate::x(q),
                    2 => Gate::y(q),
                    3 => Gate::z(q),
                    4 => Gate::s(q),
                    5 => Gate::sdg(q),
                    6 => Gate::t(q),
                    7 => Gate::tdg(q),
                    8 => Gate::rx(q, self.f64("gate angle")?),
                    9 => Gate::ry(q, self.f64("gate angle")?),
                    10 => Gate::rz(q, self.f64("gate angle")?),
                    _ => {
                        let t = self.f64("gate angle")?;
                        let p = self.f64("gate angle")?;
                        let l = self.f64("gate angle")?;
                        Gate::u(q, t, p, l)
                    }
                }
            }
            12..=15 => {
                let a = Qubit(self.u32("gate qubit")?);
                let b = Qubit(self.u32("gate qubit")?);
                match tag {
                    12 => Gate::cz(a, b),
                    13 => Gate::cx(a, b),
                    14 => Gate::zz(a, b, self.f64("gate angle")?),
                    _ => Gate::swap(a, b),
                }
            }
            other => {
                return Err(DecodeError::BadTag {
                    tag: other.to_string(),
                    offset: tag_offset,
                })
            }
        })
    }

    fn instr(&mut self) -> Result<Instr, DecodeError> {
        let tag_offset = self.pos;
        let tag = self.u8("instr tag")?;
        Ok(match tag {
            0 => Instr::InitSlm {
                rows: self.u16("islm rows")?,
                cols: self.u16("islm cols")?,
            },
            1 => Instr::InitAod {
                aod: self.u8("iaod index")?,
                rows: self.u16("iaod rows")?,
                cols: self.u16("iaod cols")?,
                fx: self.f64("iaod fx")?,
                fy: self.f64("iaod fy")?,
            },
            2 => Instr::MoveRow {
                aod: self.u8("mrow aod")?,
                row: self.u16("mrow row")?,
                from: self.f64("mrow from")?,
                to: self.f64("mrow to")?,
                retract: self.u8("mrow retract")? != 0,
            },
            3 => Instr::MoveCol {
                aod: self.u8("mcol aod")?,
                col: self.u16("mcol col")?,
                from: self.f64("mcol from")?,
                to: self.f64("mcol to")?,
                retract: self.u8("mcol retract")? != 0,
            },
            4 => Instr::Unpark {
                aod: self.u8("unpark aod")?,
            },
            5 => {
                let n = self.u32("pulse pair count")? as usize;
                let mut pairs = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    pairs.push((self.u32("pulse slot")?, self.u32("pulse slot")?));
                }
                Instr::RydbergPulse { pairs }
            }
            6 => {
                let n = self.u32("raman gate count")? as usize;
                let mut gates = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    gates.push(self.gate()?);
                }
                Instr::RamanLayer { gates }
            }
            7 => Instr::Transfer {
                a: self.u32("xfer slot")?,
                b: self.u32("xfer slot")?,
            },
            8 => Instr::Cool {
                aod: self.u8("cool aod")?,
            },
            9 => {
                let n = self.u32("park count")? as usize;
                Instr::Park {
                    kept: self.take(n, "park kept")?.to_vec(),
                }
            }
            other => {
                return Err(DecodeError::BadTag {
                    tag: other.to_string(),
                    offset: tag_offset,
                })
            }
        })
    }
}

/// Decodes a binary stream produced by [`to_bytes`].
///
/// # Errors
///
/// [`DecodeError`] on magic/version/structure problems.
pub fn from_bytes(bytes: &[u8]) -> Result<IsaProgram, DecodeError> {
    let mut c = Cursor { bytes, pos: 0 };
    if c.take(MAGIC.len(), "magic")? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = c.u32("version")?;
    if version != FORMAT_VERSION {
        return Err(DecodeError::UnsupportedVersion { found: version });
    }
    let backend = c.str("header.backend")?;
    let name = c.str("header.name")?;
    let spacing_um = c.f64("header.spacing_um")?;
    let rydberg_radius_um = c.f64("header.rydberg_radius_um")?;
    let n = c.u32("slot_of_qubit count")? as usize;
    let mut slot_of_qubit = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        slot_of_qubit.push(c.u32("slot_of_qubit entry")?);
    }
    let n = c.u32("site count")? as usize;
    let mut sites = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        sites.push(SiteSpec {
            array: c.u8("site array")?,
            row: c.u16("site row")?,
            col: c.u16("site col")?,
        });
    }
    let num_slots = c.u32("reference slot count")? as usize;
    let num_gates = c.u32("reference gate count")? as usize;
    let mut gates = Vec::with_capacity(num_gates.min(1 << 20));
    for _ in 0..num_gates {
        gates.push(c.gate()?);
    }
    let reference = Circuit::with_gates(num_slots, gates)
        .map_err(|e| structure(format!("invalid reference circuit: {e}")))?;
    let num_instrs = c.u32("instr count")? as usize;
    let mut instrs = Vec::with_capacity(num_instrs.min(1 << 20));
    for _ in 0..num_instrs {
        instrs.push(c.instr()?);
    }
    if c.pos != bytes.len() {
        return Err(DecodeError::TrailingData {
            bytes: bytes.len() - c.pos,
        });
    }
    Ok(IsaProgram {
        version,
        header: ProgramHeader {
            backend,
            name,
            spacing_um,
            rydberg_radius_um,
        },
        slot_of_qubit,
        sites,
        reference,
        instrs,
    })
}

// ---------------------------------------------------------------------
// Per-gate JSON
// ---------------------------------------------------------------------

/// Encodes one gate as the JSON array form accepted by
/// [`gate_from_json`]. Angles use `f64`'s `Debug` form: the shortest
/// decimal that parses back bit-exactly, with an exponent when that is
/// shorter (`1e-300`, not 302 digits).
///
/// # Errors
///
/// [`EncodeError::NonFiniteNumber`] if a gate angle is NaN/infinite.
pub fn gate_to_json(gate: &Gate) -> Result<String, EncodeError> {
    let (name, qubits, angles) = match *gate {
        Gate::OneQ { kind, qubit } => {
            let (name, angles) = match kind {
                OneQubitKind::H => ("h", vec![]),
                OneQubitKind::X => ("x", vec![]),
                OneQubitKind::Y => ("y", vec![]),
                OneQubitKind::Z => ("z", vec![]),
                OneQubitKind::S => ("s", vec![]),
                OneQubitKind::Sdg => ("sdg", vec![]),
                OneQubitKind::T => ("t", vec![]),
                OneQubitKind::Tdg => ("tdg", vec![]),
                OneQubitKind::Rx(t) => ("rx", vec![t]),
                OneQubitKind::Ry(t) => ("ry", vec![t]),
                OneQubitKind::Rz(t) => ("rz", vec![t]),
                OneQubitKind::U(t, p, l) => ("u", vec![t, p, l]),
            };
            (name, vec![qubit.0], angles)
        }
        Gate::TwoQ { kind, a, b } => {
            let (name, angles) = match kind {
                TwoQubitKind::Cz => ("cz", vec![]),
                TwoQubitKind::Cx => ("cx", vec![]),
                TwoQubitKind::Zz(t) => ("zz", vec![t]),
                TwoQubitKind::Swap => ("swap", vec![]),
            };
            (name, vec![a.0, b.0], angles)
        }
    };
    let mut fields = vec![format!("\"{name}\"")];
    fields.extend(qubits.iter().map(u32::to_string));
    for t in angles {
        if !t.is_finite() {
            return Err(EncodeError::NonFiniteNumber {
                field: "gate angle",
            });
        }
        fields.push(format!("{t:?}"));
    }
    Ok(format!("[{}]", fields.join(",")))
}

/// Decodes one gate from its JSON array form (e.g. `["cz", 0, 1]` or
/// `["rz", 3, 0.25]`), for callers (such as the serving layer) that
/// accept gate lists from JSON documents.
///
/// # Errors
///
/// [`DecodeError::Structure`] on unknown names, wrong arity or
/// non-integer qubit indices.
pub fn gate_from_json(value: &Value) -> Result<Gate, DecodeError> {
    let items = value.arr()?;
    let name = items
        .first()
        .ok_or_else(|| structure("empty gate"))?
        .str()?;
    let arguments = match name {
        "h" | "x" | "y" | "z" | "s" | "sdg" | "t" | "tdg" => 1,
        "rx" | "ry" | "rz" | "cz" | "cx" | "swap" => 2,
        "zz" => 3,
        "u" => 4,
        other => return Err(structure(format!("unknown gate tag `{other}`"))),
    };
    if items.len() != 1 + arguments {
        return Err(structure(format!(
            "gate `{name}` expects {arguments} arguments"
        )));
    }
    let q = |i: usize| -> Result<Qubit, DecodeError> {
        Ok(Qubit(items[i].uint(u32::MAX as u64)? as u32))
    };
    let f = |i: usize| items[i].num();
    Ok(match name {
        "h" => Gate::h(q(1)?),
        "x" => Gate::x(q(1)?),
        "y" => Gate::y(q(1)?),
        "z" => Gate::z(q(1)?),
        "s" => Gate::s(q(1)?),
        "sdg" => Gate::sdg(q(1)?),
        "t" => Gate::t(q(1)?),
        "tdg" => Gate::tdg(q(1)?),
        "rx" => Gate::rx(q(1)?, f(2)?),
        "ry" => Gate::ry(q(1)?, f(2)?),
        "rz" => Gate::rz(q(1)?, f(2)?),
        "u" => Gate::u(q(1)?, f(2)?, f(3)?, f(4)?),
        "cz" => Gate::cz(q(1)?, q(2)?),
        "cx" => Gate::cx(q(1)?, q(2)?),
        "zz" => Gate::zz(q(1)?, q(2)?, f(3)?),
        // "swap", the one name left that the arity table admits.
        _ => Gate::swap(q(1)?, q(2)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_program() -> IsaProgram {
        let mut c = Circuit::new(3);
        c.push(Gate::h(Qubit(0)));
        c.push(Gate::rz(Qubit(1), 0.1234567890123_f64));
        c.push(Gate::u(Qubit(2), -0.5, 1e-300, std::f64::consts::PI));
        c.push(Gate::cz(Qubit(0), Qubit(1)));
        c.push(Gate::zz(Qubit(1), Qubit(2), -2.75));
        IsaProgram {
            version: FORMAT_VERSION,
            header: ProgramHeader::new("atomique", "codec \"quoted\"\nname"),
            slot_of_qubit: vec![2, 0, 1],
            sites: vec![
                SiteSpec {
                    array: 0,
                    row: 0,
                    col: 0,
                },
                SiteSpec {
                    array: 1,
                    row: 0,
                    col: 1,
                },
                SiteSpec {
                    array: 2,
                    row: 3,
                    col: 2,
                },
            ],
            reference: c,
            instrs: vec![
                Instr::InitSlm { rows: 10, cols: 10 },
                Instr::InitAod {
                    aod: 0,
                    rows: 10,
                    cols: 10,
                    fx: 0.395_833,
                    fy: 0.604_167,
                },
                Instr::InitAod {
                    aod: 1,
                    rows: 4,
                    cols: 4,
                    fx: 0.604_167,
                    fy: 0.291_667,
                },
                Instr::RamanLayer {
                    gates: vec![Gate::h(Qubit(0)), Gate::rz(Qubit(1), 0.1234567890123_f64)],
                },
                Instr::MoveRow {
                    aod: 0,
                    row: 0,
                    from: 0.604_167,
                    to: 0.05,
                    retract: false,
                },
                Instr::MoveCol {
                    aod: 0,
                    col: 1,
                    from: 1.395_833,
                    to: 0.08,
                    retract: false,
                },
                Instr::RydbergPulse {
                    pairs: vec![(0, 1), (2, 0xFFFF)],
                },
                Instr::MoveRow {
                    aod: 0,
                    row: 0,
                    from: 0.05,
                    to: 0.604_167,
                    retract: true,
                },
                Instr::Unpark { aod: 1 },
                Instr::Transfer { a: 1, b: 2 },
                Instr::Cool { aod: 0 },
                Instr::Park { kept: vec![0, 1] },
            ],
        }
    }

    #[test]
    fn binary_roundtrip_is_lossless_and_stable() {
        let p = sample_program();
        let bytes = to_bytes(&p);
        let decoded = from_bytes(&bytes).unwrap();
        assert_eq!(decoded, p);
        assert_eq!(to_bytes(&decoded), bytes);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        let p = sample_program();
        let bytes = to_bytes(&p);

        // Bad magic.
        let mut corrupt = bytes.clone();
        corrupt[0] = b'X';
        assert_eq!(from_bytes(&corrupt), Err(DecodeError::BadMagic));

        // Bad version.
        let mut corrupt = bytes.clone();
        corrupt[8] = 99;
        assert!(matches!(
            from_bytes(&corrupt),
            Err(DecodeError::UnsupportedVersion { found: 99 })
        ));

        // Truncation anywhere must error, never panic.
        for cut in (0..bytes.len()).step_by(7) {
            assert!(from_bytes(&bytes[..cut]).is_err());
        }

        // Trailing garbage.
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(
            from_bytes(&extended),
            Err(DecodeError::TrailingData { bytes: 1 })
        );
    }

    #[test]
    fn malformed_json_gates_are_structure_errors() {
        for (doc, message) in [
            ("[]", "empty gate"),
            (r#"["ccx", 0, 1, 2]"#, "unknown gate tag `ccx`"),
            (r#"["rz", 0]"#, "gate `rz` expects 2 arguments"),
            (r#"["cz", 0, 1, 2]"#, "gate `cz` expects 2 arguments"),
            (r#"["h", 1.5]"#, "expected integer in [0, 4294967295]"),
            (r#"["rx", 0, "pi"]"#, "expected number"),
        ] {
            let gate = crate::json::parse(doc).unwrap();
            let message = message.to_string();
            assert_eq!(
                gate_from_json(&gate),
                Err(DecodeError::Structure { message }),
                "{doc}"
            );
        }
    }

    #[test]
    fn float_extremes_roundtrip() {
        let mut p = sample_program();
        p.instrs = vec![Instr::MoveRow {
            aod: 0,
            row: 0,
            from: -0.0,
            to: f64::MIN_POSITIVE,
            retract: false,
        }];
        let decoded = from_bytes(&to_bytes(&p)).unwrap();
        match decoded.instrs[0] {
            Instr::MoveRow { from, to, .. } => {
                assert_eq!(from.to_bits(), (-0.0_f64).to_bits());
                assert_eq!(to.to_bits(), f64::MIN_POSITIVE.to_bits());
            }
            _ => unreachable!(),
        }
        // NaN survives too: the binary format stores raw bits.
        p.instrs = vec![Instr::MoveRow {
            aod: 0,
            row: 0,
            from: f64::NAN,
            to: 0.0,
            retract: false,
        }];
        let decoded = from_bytes(&to_bytes(&p)).unwrap();
        match decoded.instrs[0] {
            Instr::MoveRow { from, .. } => assert!(from.is_nan()),
            _ => unreachable!(),
        }
    }
}
