//! Committed expected outputs.
//!
//! The simulator is deterministic, so every later change to the program
//! must reproduce these numbers exactly unless it means to change the
//! simulated machine (and then regenerates this table with
//! `--print-oracle`, saying why). A mismatch fails the operation, lowers
//! `ok_ratio` and makes the run exit non-zero.

use hymm_core::stats::SimReport;
use hymm_graph::datasets::Dataset;

/// `(dataset, variant, cycles, dram_bytes)` of the suite at native scale.
const SUITE: &[(&str, &str, u64, u64)] = &[
    ("CR", "OP", 1039900, 14473472),
    ("CR", "RWP", 480902, 1959296),
    ("CR", "HyMM", 303743, 1976832),
    ("CR", "HyMM-noacc", 811491, 4336768),
    ("AP", "OP", 17810692, 350290432),
    ("AP", "RWP", 4249862, 31947840),
    ("AP", "HyMM", 3722779, 26124096),
    ("AP", "HyMM-noacc", 6793743, 63054144),
    ("AC", "OP", 33548839, 662806016),
    ("AC", "RWP", 8252147, 71657216),
    ("AC", "HyMM", 7088905, 51980288),
    ("AC", "HyMM-noacc", 13034415, 128578304),
    ("CS", "OP", 14367083, 226986176),
    ("CS", "RWP", 7749620, 57012928),
    ("CS", "HyMM", 6884148, 51988544),
    ("CS", "HyMM-noacc", 10714470, 82207040),
    ("PH", "OP", 23523441, 350862144),
    ("PH", "RWP", 14734108, 104212864),
    ("PH", "HyMM", 13146692, 83178240),
    ("PH", "HyMM-noacc", 22283098, 158954496),
];

/// `(request body, FNV-1a 64 of the response body)` of every serve key.
const SERVE: &[(&str, u64)] = &[
    (
        "{\"dataset\": \"CR\", \"scale\": 1000, \"dataflow\": \"HyMM\"}",
        0xa34890373ce080b0,
    ),
    (
        "{\"dataset\": \"CR\", \"scale\": 1000, \"dataflow\": \"RWP\"}",
        0xdd5d0b751e82afed,
    ),
    (
        "{\"dataset\": \"CR\", \"scale\": 1000, \"dataflow\": \"OP\"}",
        0x8140931a2068fe81,
    ),
    (
        "{\"dataset\": \"CS\", \"scale\": 1000, \"dataflow\": \"HyMM\"}",
        0x422ece8c2c2a6966,
    ),
    (
        "{\"dataset\": \"CS\", \"scale\": 1000, \"dataflow\": \"RWP\"}",
        0x2182d2d028567f2a,
    ),
    (
        "{\"dataset\": \"CS\", \"scale\": 1000, \"dataflow\": \"OP\"}",
        0xb6e3c3deba7c9c00,
    ),
    (
        "{\"dataset\": \"PH\", \"scale\": 1000, \"dataflow\": \"HyMM\"}",
        0x92addf23246f0645,
    ),
    (
        "{\"dataset\": \"PH\", \"scale\": 1000, \"dataflow\": \"RWP\"}",
        0x209b9c6a0f8fc039,
    ),
    (
        "{\"dataset\": \"PH\", \"scale\": 1000, \"dataflow\": \"OP\"}",
        0x0fca8179f33a38ea,
    ),
];

/// FNV-1a 64-bit digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Whether a suite simulation reproduced the committed cycles and DRAM
/// bytes.
pub fn suite_matches(dataset: Dataset, variant: &str, report: &SimReport) -> bool {
    let abbrev = dataset.abbrev();
    let want = SUITE
        .iter()
        .find(|(d, v, _, _)| *d == abbrev && *v == variant);
    let ok = matches!(want, Some(&(_, _, cycles, dram)) if cycles == report.cycles && dram == report.dram_bytes());
    if !ok {
        eprintln!(
            "[oracle] {abbrev} {variant}: got cycles {} dram_bytes {}, expected {:?}",
            report.cycles,
            report.dram_bytes(),
            want.map(|&(_, _, c, b)| (c, b))
        );
    }
    ok
}

/// Whether a served body hashes to the committed value for its request.
pub fn serve_matches(request: &str, body: &str) -> bool {
    let want = SERVE.iter().find(|(r, _)| *r == request).map(|&(_, h)| h);
    let got = fnv1a(body.as_bytes());
    if want != Some(got) {
        eprintln!("[oracle] {request}: body hash {got:#018x}, expected {want:x?}");
        return false;
    }
    true
}

/// One `SUITE` table row.
pub fn suite_row(dataset: Dataset, variant: &str, report: &SimReport) -> String {
    format!(
        "    (\"{}\", \"{variant}\", {}, {}),",
        dataset.abbrev(),
        report.cycles,
        report.dram_bytes()
    )
}

/// One `SERVE` table row.
pub fn serve_row(request: &str, body: &str) -> String {
    format!("    ({request:?}, {:#018x}),", fnv1a(body.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_reference_values() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn tables_cover_every_cell_once() {
        for d in crate::suite::DATASETS {
            for v in crate::suite::VARIANTS {
                let n = SUITE
                    .iter()
                    .filter(|(a, b, _, _)| *a == d.abbrev() && *b == v)
                    .count();
                assert_eq!(n, 1, "{} {v}", d.abbrev());
            }
        }
        let mut bodies: Vec<&str> = SERVE.iter().map(|(r, _)| *r).collect();
        bodies.sort_unstable();
        bodies.dedup();
        assert_eq!(bodies.len(), SERVE.len(), "a serve key is listed twice");
    }
}
