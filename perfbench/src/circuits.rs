//! The workloads' inputs, generated from the benchmark seed. The
//! compiler only ever sees these generated circuits.

use raa_benchmarks::{
    adder, arbitrary_circuit, bv, h2, hhl, lih, mermin_bell, phase_code, qaoa_random, qaoa_regular,
    qsim_random, qv, vqe,
};
use raa_circuit::Circuit;

/// Input size: `Full` is the benchmark, `Tiny` the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// A named circuit of a workload's compile set.
#[derive(Debug, Clone)]
pub struct Named {
    pub name: String,
    pub circuit: Circuit,
}

fn named(name: &str, circuit: Circuit) -> Named {
    Named {
        name: name.to_string(),
        circuit,
    }
}

/// Qubits per `qaoa-route` instance.
pub fn route_qubits(scale: Scale) -> usize {
    match scale {
        Scale::Full => 1024,
        Scale::Tiny => 64,
    }
}

/// `qaoa-route`: three 3-regular QAOA instances, seeds `seed..seed+3`
/// (seed 2024's first instance is the committed QAOA-regu3-1024 row).
pub fn qaoa_route(seed: u64, scale: Scale) -> Vec<Named> {
    let n = route_qubits(scale);
    (0..3)
        .map(|k| {
            let s = seed.wrapping_add(k);
            named(&format!("QAOA-regu3-{n}-s{s}"), qaoa_regular(n, 3, s))
        })
        .collect()
}

/// `paper-suite`: the paper's Fig. 13 (17), Fig. 14 (11), Fig. 20 (3)
/// and Fig. 22 (3) circuits, the seeded generators drawing from `seed`
/// (seed 2024 reproduces the committed suites). The tiny scale keeps
/// only the Fig. 14 set.
pub fn paper_suite(seed: u64, scale: Scale) -> Vec<Named> {
    let s = seed;
    let small = vec![
        named("Mermin-Bell-5", mermin_bell(5)),
        named("VQE-10", vqe(10, s)),
        named("VQE-20", vqe(20, s)),
        named("Adder-10", adder(4)),
        named("BV-14", bv(14, 13, s)),
        named("QSim-rand-5", qsim_random(5, 0.5, 10, s)),
        named("QSim-rand-10", qsim_random(10, 0.5, 10, s)),
        named("H2-4", h2()),
        named("QAOA-rand-5", qaoa_random(5, 0.5, s)),
        named("QAOA-regu3-20", qaoa_regular(20, 3, s)),
        named("QAOA-regu4-10", qaoa_regular(10, 4, s)),
    ];
    if scale == Scale::Tiny {
        return small;
    }
    let mut all = vec![
        named("HHL-7", hhl(4, 2)),
        named("Mermin-Bell-10", mermin_bell(10)),
        named("QV-32", qv(32, 32, s)),
        named("BV-50", bv(50, 22, s)),
        named("BV-70", bv(70, 36, s)),
        named("QSim-rand-20", qsim_random(20, 0.5, 10, s)),
        named("QSim-rand-40", qsim_random(40, 0.5, 10, s)),
        named("QSim-rand-20-p0.3", qsim_random(20, 0.3, 10, s)),
        named("QSim-rand-40-p0.3", qsim_random(40, 0.3, 10, s)),
        named("H2-4", h2()),
        named("LiH-6", lih()),
        named("QAOA-rand-10", qaoa_random(10, 0.5, s)),
        named("QAOA-rand-20", qaoa_random(20, 0.5, s)),
        named("QAOA-rand-30", qaoa_random(30, 0.5, s)),
        named("QAOA-rand-50", qaoa_random(50, 0.5, s)),
        named("QAOA-regu5-40", qaoa_regular(40, 5, s)),
        named("QAOA-regu6-100", qaoa_regular(100, 6, s)),
    ];
    all.extend(small);
    all.extend([
        named("Arb-100Q", arbitrary_circuit(100, 10.0, 5.0, s)),
        named("QSim-40Q", qsim_random(40, 0.5, 10, s)),
        named("QAOA-40Q", qaoa_regular(40, 5, s)),
        named("QAOA-rand-100", qaoa_random(100, 0.15, s)),
        named("QSIM-rand-100", qsim_random(100, 0.25, 10, s)),
        named("Phase-Code-200", phase_code(100, 2)),
    ]);
    all
}

/// Qubits per fresh `serve-mix` miss instance.
pub fn miss_qubits(scale: Scale) -> usize {
    match scale {
        Scale::Full => 100,
        Scale::Tiny => 20,
    }
}

/// The `k`-th fresh QAOA instance of `serve-mix`: 3-regular, its seed
/// derived from the workload seed so no two instances of one run
/// collide.
pub fn miss_instance(seed: u64, k: u64, scale: Scale) -> Named {
    let n = miss_qubits(scale);
    let s = seed.wrapping_mul(1_000_003).wrapping_add(k);
    named(&format!("QAOA-regu3-{n}-m{k}"), qaoa_regular(n, 3, s))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seed 2024 reproduces the repository's committed suites.
    #[test]
    fn seed_2024_is_the_committed_suites() {
        let mut committed = raa_benchmarks::large_suite();
        committed.extend(raa_benchmarks::small_suite());
        committed.extend(raa_benchmarks::topology_suite());
        committed.extend(raa_benchmarks::relaxation_suite());
        let ours = paper_suite(2024, Scale::Full);
        assert_eq!(ours.len(), 34);
        for (a, b) in ours.iter().zip(&committed) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.circuit, b.circuit, "{}", a.name);
        }
        let row = &raa_benchmarks::scaling_pair("QSim", "QAOA", 1024)[1];
        assert_eq!(qaoa_route(2024, Scale::Full)[0].circuit, row.circuit);
    }
}
