//! Compiler configuration: hardware, physics, pass selection and the
//! constraint-relaxation toggles of paper Fig. 22.

use raa_arch::RaaConfig;
use raa_isa::OptLevel;
use raa_physics::HardwareParams;
use raa_sabre::SabreConfig;

/// Which qubit-array mapper to use (paper Fig. 21's first ablation axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArrayMapperKind {
    /// The paper's greedy MAX k-Cut on the γ-decayed gate-frequency graph
    /// (Alg. 1).
    #[default]
    MaxKCut,
    /// Qiskit-style dense mapping: fill arrays in index order, ignoring the
    /// interaction structure (the Fig. 21 baseline).
    Dense,
}

/// Which qubit-atom mapper to use (Fig. 21's second ablation axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AtomMapperKind {
    /// Load-balance diagonal-spiral SLM mapping plus frequency-aligned AOD
    /// mapping (paper Sec. III-B).
    #[default]
    LoadBalance,
    /// Uniformly random placement (the Fig. 21 baseline).
    Random,
}

/// Router scheduling mode (Fig. 21's third ablation axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterMode {
    /// Greedy maximal legal parallel gate set per stage (paper Sec. III-C).
    #[default]
    Parallel,
    /// One two-qubit gate per movement stage (the Fig. 21 baseline).
    Serial,
}

/// How the router turns its planned gate groups into movement stages.
///
/// One strategy remains: one movement stage per planned gate group.
/// Merging compatible stages is the ISA optimizer's job (`-O2`'s
/// `parallelize` and `fuse` passes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterStrategy {
    /// One movement stage (move in, pulse, retract) per planned gate
    /// group — the paper's Sec. III-C scheduling.
    #[default]
    Sequential,
}

/// How the router's constraint checks enumerate proximity candidates.
///
/// Both modes produce bit-identical schedules and ISA streams (proven by
/// `tests/router_differential.rs`): the line sweep only restricts which
/// atom pairs a check *looks at* — to those that can possibly be within
/// range — never the accept/reject predicates themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProximityIndex {
    /// Sweep the sorted line positions of each axis for close line pairs
    /// and test only the atoms where they cross: every atom sits where a
    /// row line crosses a column line, so two atoms can be close only if
    /// both their rows and their columns are. The default.
    #[default]
    Lines,
    /// The original exhaustive all-atoms scan: O(atoms) per check. Kept
    /// as the oracle the differential router tests compare against.
    Exhaustive,
}

/// How the transpile stage builds its multipartite coupling graph and
/// evaluates the MAX k-Cut array mapper's vertex degrees. SABRE routing
/// is the same in both modes.
///
/// Like [`ProximityIndex`], both modes produce bit-identical outputs —
/// mappings, schedules, ISA bytes, stage spans, counters — proven by
/// `tests/transpile_differential.rs`. The indexed mode only changes *how*
/// values are obtained (analytic multipartite distances, adjacency-list
/// degrees), never the arithmetic that turns them into the floats the
/// tie-breaks compare (see `docs/PARALLELISM.md`, "Transpile indexing").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TranspileIndex {
    /// The coupling graph's distance table is built analytically for
    /// the complete-multipartite geometry, and MAX k-Cut maintains
    /// weighted degrees from adjacency lists instead of rescanning. The
    /// default.
    #[default]
    Indexed,
    /// BFS-built distance tables and full interaction-graph rescans in
    /// MAX k-Cut. Kept as the differential baseline.
    Naive,
}

/// Constraint-relaxation toggles (paper Fig. 22). All `false` = the real
/// hardware; each flag disables one router check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Relaxation {
    /// Relax constraint 1: pretend two-qubit gates are individually
    /// addressable, so unwanted Rydberg-range pairs are ignored.
    pub individual_addressing: bool,
    /// Relax constraint 2: allow AOD row/column order violations.
    pub allow_order_violation: bool,
    /// Relax constraint 3: allow rows/columns of one AOD to overlap.
    pub allow_overlap: bool,
}

impl Relaxation {
    /// No relaxation: all three hardware constraints enforced.
    pub const NONE: Relaxation = Relaxation {
        individual_addressing: false,
        allow_order_violation: false,
        allow_overlap: false,
    };
}

/// Full configuration of one [`compile`](crate::compile) run.
///
/// # Examples
///
/// ```
/// use atomique::AtomiqueConfig;
/// let cfg = AtomiqueConfig::default(); // paper defaults: 10×10, 2 AODs
/// assert_eq!(cfg.hardware.num_aods(), 2);
/// assert!((cfg.gamma - 0.9).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AtomiqueConfig {
    /// The machine to compile for.
    pub hardware: RaaConfig,
    /// Physical constants for the fidelity model.
    pub params: HardwareParams,
    /// Layer-decay factor γ of the gate-frequency graph (Alg. 1).
    pub gamma: f64,
    /// Constraint relaxations (Fig. 22); default none.
    pub relaxation: Relaxation,
    /// Qubit-array mapper selection.
    pub array_mapper: ArrayMapperKind,
    /// Qubit-atom mapper selection.
    pub atom_mapper: AtomMapperKind,
    /// Router scheduling mode.
    pub router_mode: RouterMode,
    /// How planned gate groups become movement stages; always
    /// [`RouterStrategy::Sequential`], one stage per group.
    pub router_strategy: RouterStrategy,
    /// Proximity-candidate enumeration used by the router's constraint
    /// checks; [`ProximityIndex::Lines`] unless you are running the
    /// differential oracle.
    pub proximity_index: ProximityIndex,
    /// Transpile-stage graph construction and k-Cut degree evaluation:
    /// [`TranspileIndex::Indexed`] (default — analytic multipartite
    /// distances, O(Δ) k-Cut degrees) or [`TranspileIndex::Naive`] (BFS
    /// distances and full rescans, kept as the differential baseline).
    /// Bit-identical outputs either way.
    pub transpile_index: TranspileIndex,
    /// SABRE tunables for intra-array SWAP insertion.
    pub sabre: SabreConfig,
    /// Seed for the random atom mapper (ablation only).
    pub seed: u64,
    /// Lower the compiled schedule to a `raa-isa` instruction stream and
    /// attach it to the output (`CompiledProgram::isa`). The attached
    /// stream's header name is empty — use
    /// [`emit_isa`](crate::emit_isa) directly to produce a named stream.
    pub emit_isa: bool,
    /// Run the independent ISA oracle after compilation: the stream must
    /// pass `raa_isa::check_legality` (C1/C2/C3 re-verified from the
    /// stream alone) and `raa_isa::replay_verify` (every reference gate
    /// executed exactly once, DAG order respected). Compilation fails if
    /// either check does. Implies lowering; the stream is attached only
    /// when [`AtomiqueConfig::emit_isa`] is also set.
    pub verify_isa: bool,
    /// ISA optimization level applied to the lowered stream
    /// (`raa_isa::opt`): pulse parallelization, retract/approach fusion,
    /// move coalescing, park elision and dead-move elimination. The
    /// passes run to a fixpoint under cheap guards, and `optimize` then
    /// proves its result once with the stream oracle; the `verify` stage
    /// reuses that proof. Applied only when [`AtomiqueConfig::emit_isa`]
    /// attaches the stream; default [`OptLevel::None`].
    pub opt_level: OptLevel,
    /// Has no effect: every compile runs on its calling thread. Kept
    /// (default 1) only because the benchmark adapter still names it,
    /// and still hashed by [`AtomiqueConfig::fingerprint`] so cache
    /// keys do not move.
    pub threads: usize,
    /// Detail-level tracing: record inner router/optimizer/checker phase
    /// spans and all telemetry counters into the compile's
    /// [`CompileReport`](crate::CompileReport) (see
    /// `docs/OBSERVABILITY.md`). Off by default — the coarse stage spans
    /// behind [`StageTimings`](crate::StageTimings) are always recorded
    /// — and proven output-identical either way by
    /// `tests/router_differential.rs`. When the caller already owns a
    /// `raa-trace` session, that session's level wins and this flag is
    /// ignored.
    pub trace: bool,
}

impl Default for AtomiqueConfig {
    fn default() -> Self {
        AtomiqueConfig {
            hardware: RaaConfig::default(),
            params: HardwareParams::neutral_atom(),
            gamma: 0.9,
            relaxation: Relaxation::NONE,
            array_mapper: ArrayMapperKind::default(),
            atom_mapper: AtomMapperKind::default(),
            router_mode: RouterMode::default(),
            router_strategy: RouterStrategy::default(),
            proximity_index: ProximityIndex::default(),
            transpile_index: TranspileIndex::default(),
            sabre: SabreConfig::default(),
            seed: 0,
            emit_isa: false,
            verify_isa: false,
            opt_level: OptLevel::None,
            threads: 1,
            trace: false,
        }
    }
}

impl AtomiqueConfig {
    /// Configuration with a specific machine, paper defaults elsewhere.
    pub fn for_hardware(hardware: RaaConfig) -> Self {
        AtomiqueConfig {
            hardware,
            ..AtomiqueConfig::default()
        }
    }

    /// Configuration for a square machine sized to hold `num_qubits`
    /// qubits at the paper's 1:3 qubit-to-trap occupancy: side
    /// `⌈√num_qubits⌉` (at least the default 10), one SLM plus two AODs.
    /// This is the machine the Fig. 20-style 256/512/1024-atom scaling
    /// workloads compile on.
    ///
    /// # Examples
    ///
    /// ```
    /// use atomique::AtomiqueConfig;
    /// let cfg = AtomiqueConfig::scaled_to(1024);
    /// assert_eq!(cfg.hardware.total_capacity(), 3 * 32 * 32);
    /// assert_eq!(AtomiqueConfig::scaled_to(50).hardware.total_capacity(), 300);
    /// ```
    pub fn scaled_to(num_qubits: usize) -> Self {
        let side = ((num_qubits as f64).sqrt().ceil() as usize).max(10);
        let hardware = RaaConfig::square(side, 2).expect("square machine is always valid");
        AtomiqueConfig::for_hardware(hardware)
    }

    /// The Fig. 21 "all baselines" configuration: dense array mapper,
    /// random atom mapper, serial router.
    pub fn ablation_baseline(mut self) -> Self {
        self.array_mapper = ArrayMapperKind::Dense;
        self.atom_mapper = AtomMapperKind::Random;
        self.router_mode = RouterMode::Serial;
        self
    }

    /// A process- and platform-stable 64-bit fingerprint covering
    /// *every* field of the configuration, used (with
    /// [`Circuit::stable_hash`](raa_circuit::Circuit::stable_hash)) as
    /// the compile-cache key of the serving layer.
    ///
    /// Implemented as FNV-1a over a versioned salt plus each field's
    /// canonical encoding — `f64::to_bits` for floats (so NaNs with
    /// different payloads, and `-0.0` vs `0.0`, separate), explicit
    /// tags for enums — exactly like `Circuit::stable_hash`. Hashing
    /// every field is deliberately conservative: fields that provably
    /// do not change output bytes (`threads`, `proximity_index`,
    /// `trace`) still separate cache entries — an over-split cache
    /// costs a duplicate compile, while an under-split one would serve
    /// stale results. The exhaustive destructuring below makes a field
    /// added later a compile error until it joins the key.
    pub fn fingerprint(&self) -> u64 {
        let AtomiqueConfig {
            hardware,
            params,
            gamma,
            relaxation,
            array_mapper,
            atom_mapper,
            router_mode,
            router_strategy,
            proximity_index,
            transpile_index,
            sabre,
            seed,
            emit_isa,
            verify_isa,
            opt_level,
            threads,
            trace,
        } = self;
        let HardwareParams {
            two_qubit_fidelity,
            one_qubit_fidelity,
            two_qubit_time_s,
            one_qubit_time_s,
            coherence_time_s,
            atom_distance_um,
            t_move_s,
            t_transfer_s,
            transfer_loss_prob,
            x_zpf_m,
            omega0_rad_s,
            lambda,
            n_vib_max,
            n_vib_cool_threshold,
        } = params;
        let Relaxation {
            individual_addressing,
            allow_order_violation,
            allow_overlap,
        } = relaxation;
        let SabreConfig {
            extended_set_size,
            extended_set_weight,
            decay_increment,
            decay_reset_interval,
        } = sabre;

        let mut h = Fnv::new(b"atomique-config-v2");
        // Hardware: array shapes + physics. The AOD home offsets are a
        // pure function of the AOD count, so the shapes cover them.
        h.put(hardware.slm.rows as u64);
        h.put(hardware.slm.cols as u64);
        h.put(hardware.aods.len() as u64);
        for dims in &hardware.aods {
            h.put(dims.rows as u64);
            h.put(dims.cols as u64);
        }
        h.put_f64(hardware.spacing_um);
        h.put_f64(hardware.rydberg_radius_um);
        for &v in &[
            two_qubit_fidelity,
            one_qubit_fidelity,
            two_qubit_time_s,
            one_qubit_time_s,
            coherence_time_s,
            atom_distance_um,
            t_move_s,
            t_transfer_s,
            transfer_loss_prob,
            x_zpf_m,
            omega0_rad_s,
            lambda,
            n_vib_max,
            n_vib_cool_threshold,
        ] {
            h.put_f64(*v);
        }
        h.put_f64(*gamma);
        h.put(*individual_addressing as u64);
        h.put(*allow_order_violation as u64);
        h.put(*allow_overlap as u64);
        h.put(match array_mapper {
            ArrayMapperKind::MaxKCut => 0,
            ArrayMapperKind::Dense => 1,
        });
        h.put(match atom_mapper {
            AtomMapperKind::LoadBalance => 0,
            AtomMapperKind::Random => 1,
        });
        h.put(match router_mode {
            RouterMode::Parallel => 0,
            RouterMode::Serial => 1,
        });
        h.put(match router_strategy {
            RouterStrategy::Sequential => 0,
        });
        h.put(match proximity_index {
            ProximityIndex::Lines => 0,
            ProximityIndex::Exhaustive => 1,
        });
        h.put(match transpile_index {
            TranspileIndex::Indexed => 0,
            TranspileIndex::Naive => 1,
        });
        h.put(*extended_set_size as u64);
        h.put_f64(*extended_set_weight);
        h.put_f64(*decay_increment);
        h.put(*decay_reset_interval as u64);
        h.put(*seed);
        h.put(*emit_isa as u64);
        h.put(*verify_isa as u64);
        h.put(match opt_level {
            OptLevel::None => 0,
            OptLevel::Basic => 1,
            OptLevel::Aggressive => 2,
        });
        h.put(*threads as u64);
        h.put(*trace as u64);
        h.finish()
    }
}

/// FNV-1a accumulator over canonical little-endian field encodings
/// (the same scheme as `Circuit::stable_hash`).
struct Fnv(u64);

impl Fnv {
    fn new(salt: &[u8]) -> Fnv {
        let mut h = Fnv(0xcbf29ce484222325);
        for &b in salt {
            h.byte(b);
        }
        h
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
    }

    fn put(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn put_f64(&mut self, v: f64) {
        self.put(v.to_bits());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_defaults() {
        let c = AtomiqueConfig::default();
        assert_eq!(c.array_mapper, ArrayMapperKind::MaxKCut);
        assert_eq!(c.atom_mapper, AtomMapperKind::LoadBalance);
        assert_eq!(c.router_mode, RouterMode::Parallel);
        assert_eq!(c.router_strategy, RouterStrategy::Sequential);
        assert_eq!(c.proximity_index, ProximityIndex::Lines);
        assert_eq!(c.transpile_index, TranspileIndex::Indexed);
        assert_eq!(c.relaxation, Relaxation::NONE);
        assert_eq!(c.opt_level, OptLevel::None);
        assert_eq!(c.hardware.total_capacity(), 300);
    }

    #[test]
    fn ablation_baseline_flips_all_axes() {
        let c = AtomiqueConfig::default().ablation_baseline();
        assert_eq!(c.array_mapper, ArrayMapperKind::Dense);
        assert_eq!(c.atom_mapper, AtomMapperKind::Random);
        assert_eq!(c.router_mode, RouterMode::Serial);
    }

    #[test]
    fn relaxation_default_enforces_all() {
        let r = Relaxation::default();
        assert!(!r.individual_addressing && !r.allow_order_violation && !r.allow_overlap);
    }

    #[test]
    fn fingerprint_separates_every_compilation_axis() {
        let base = AtomiqueConfig::default();
        assert_eq!(base.fingerprint(), base.clone().fingerprint());

        let mut opt = base.clone();
        opt.opt_level = OptLevel::Aggressive;
        let mut threads = base.clone();
        threads.threads = 4;
        let mut prox = base.clone();
        prox.proximity_index = ProximityIndex::Exhaustive;
        let mut tidx = base.clone();
        tidx.transpile_index = TranspileIndex::Naive;
        let mut gamma = base.clone();
        gamma.gamma = 0.8;
        let mut hw = base.clone();
        hw.hardware = raa_arch::RaaConfig::square(20, 2).unwrap();

        let prints = [
            base.fingerprint(),
            opt.fingerprint(),
            threads.fingerprint(),
            prox.fingerprint(),
            tidx.fingerprint(),
            gamma.fingerprint(),
            hw.fingerprint(),
        ];
        for (i, a) in prints.iter().enumerate() {
            for b in prints.iter().skip(i + 1) {
                assert_ne!(a, b, "two distinct configs share a fingerprint");
            }
        }
    }

    #[test]
    fn fingerprint_hashes_exact_float_bits_not_renderings() {
        // NaNs with different payloads render identically (`NaN`) but
        // are different bit patterns; the key must keep them apart.
        let with_gamma = |gamma: f64| AtomiqueConfig {
            gamma,
            ..AtomiqueConfig::default()
        };
        let a = with_gamma(f64::from_bits(0x7ff8_0000_0000_0001));
        let b = with_gamma(f64::from_bits(0x7ff8_0000_0000_0002));
        assert!(a.gamma.is_nan() && b.gamma.is_nan());
        assert_ne!(a.fingerprint(), b.fingerprint());

        // Same for the sign of zero, which `==` would conflate.
        assert_ne!(
            with_gamma(-0.0).fingerprint(),
            with_gamma(0.0).fingerprint()
        );
    }
}
