//! Readers of what `reproduce` writes: the `--bench-out` report of a matrix
//! invocation and the textual report of a fuzz campaign.

use crate::json::Json;

/// The `deterministic` section of a `--bench-out` report, plus the wall
/// time the harness itself measured around the matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchOut {
    /// Simulated runs.
    pub runs: u64,
    /// Transport messages processed.
    pub events: u64,
    /// Bit pattern of the summed virtual seconds.
    pub virtual_bits: u64,
    /// XOR of every run's checksum bits.
    pub checksum_xor: u64,
    /// `timing.wall_seconds`: the matrix alone, without start-up and render.
    pub matrix_wall_s: f64,
}

impl BenchOut {
    /// Parse a `--bench-out` report.
    pub fn parse(text: &str) -> Result<BenchOut, String> {
        let doc = Json::parse(text)?;
        let num = |path: &[&str]| {
            doc.at(path)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("bench-out: no number at {}", path.join(".")))
        };
        let bits = |path: &[&str]| {
            doc.at(path)
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| format!("bench-out: no hex bit pattern at {}", path.join(".")))
        };
        Ok(BenchOut {
            runs: num(&["deterministic", "runs"])? as u64,
            events: num(&["deterministic", "total_messages"])? as u64,
            virtual_bits: bits(&["deterministic", "total_virtual_seconds_bits"])?,
            checksum_xor: bits(&["deterministic", "checksum_bits_xor"])?,
            matrix_wall_s: num(&["timing", "wall_seconds"])?,
        })
    }
}

/// What a fuzz campaign's report says: runs that passed and findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzOut {
    /// Simulated runs on the `seed N: K run(s), all pass` lines.
    pub runs_passed: u64,
    /// The final `findings: N`.
    pub findings: u64,
}

impl FuzzOut {
    /// Parse a fuzz report; a report without its `findings:` line (a
    /// campaign that died) is an error.
    pub fn parse(text: &str) -> Result<FuzzOut, String> {
        let mut runs_passed = 0;
        let mut findings = None;
        for line in text.lines() {
            if let Some(n) = line.strip_prefix("findings: ") {
                findings = n.trim().parse::<u64>().ok();
            } else if let Some(rest) = line.strip_suffix(" run(s), all pass") {
                let count = rest.rsplit(' ').next().and_then(|k| k.parse::<u64>().ok());
                runs_passed += count.ok_or_else(|| format!("fuzz report: bad line '{line}'"))?;
            }
        }
        Ok(FuzzOut {
            runs_passed,
            findings: findings.ok_or("fuzz report: no 'findings: N' line")?,
        })
    }
}

/// FNV-1a 64 of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from `reproduce` at eae1391.
    const BENCH_OUT: &str = include_str!("../tests/fixtures/bench_out_tiny.json");
    const FUZZ_CLEAN: &str = include_str!("../tests/fixtures/fuzz_clean.txt");
    const FUZZ_FINDING: &str = include_str!("../tests/fixtures/fuzz_finding.txt");

    #[test]
    fn bench_out_reports_parse_to_their_deterministic_section() {
        let b = BenchOut::parse(BENCH_OUT).unwrap();
        assert_eq!(b.runs, 384);
        assert_eq!(b.events, 168_486);
        assert_eq!(b.virtual_bits, 0x4056_3a00_d13a_d853);
        assert_eq!(b.checksum_xor, 1);
        assert!(b.matrix_wall_s > 0.0);
        assert!(BenchOut::parse("{\"deterministic\": {}}").is_err());
        assert!(BenchOut::parse("not json").is_err());
    }

    #[test]
    fn fuzz_reports_parse_to_passed_runs_and_findings() {
        assert_eq!(
            FuzzOut::parse(FUZZ_CLEAN).unwrap(),
            FuzzOut {
                runs_passed: 144,
                findings: 0
            }
        );
        let bad = FuzzOut::parse(FUZZ_FINDING).unwrap();
        assert_eq!(bad.findings, 1);
        assert_eq!(bad.runs_passed, 0);
        assert!(FuzzOut::parse("seed 0: 48 run(s), all pass\n").is_err());
    }

    #[test]
    fn fnv64_matches_the_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
