//! The output check: every report's JSON and CSV bytes against the
//! committed reference of its spec family and seed-axis value.
//!
//! The reference stores each artifact's length and 64-bit FNV-1a digest.
//! FNV-1a's step is a bijection of the state for a fixed input byte, so
//! two inputs of equal length that differ in exactly one byte always
//! digest differently: a single flipped byte can never pass.

use std::fmt;

/// Length and FNV-1a digest of one artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Byte length.
    pub len: usize,
    /// 64-bit FNV-1a over the bytes.
    pub fnv: u64,
}

impl Digest {
    /// Digests `bytes`.
    pub fn of(bytes: &[u8]) -> Digest {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Digest {
            len: bytes.len(),
            fnv: h,
        }
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\t{:016x}", self.len, self.fnv)
    }
}

/// The reference of one spec family at one seed-axis value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// Spec family (`workload::FAMILIES`).
    pub family: String,
    /// Seed-axis value.
    pub seed_axis: u64,
    /// The report JSON.
    pub json: Digest,
    /// The report CSV.
    pub csv: Digest,
}

impl Reference {
    /// One tab-separated line of the reference file.
    pub fn line(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}",
            self.family, self.seed_axis, self.json, self.csv
        )
    }
}

/// The reference file's column header.
pub const HEADER: &str = "# family\tseed_axis\tjson_len\tjson_fnv\tcsv_len\tcsv_fnv";

/// Parses a reference file; `#` lines are comments.
pub fn parse_references(text: &str) -> Result<Vec<Reference>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|(n, line)| {
            let bad = |what: &str| format!("reference line {}: {what}: {line:?}", n + 1);
            let f: Vec<&str> = line.split('\t').collect();
            if f.len() != 6 {
                return Err(bad("expected 6 tab-separated fields"));
            }
            let uint = |s: &str| s.parse::<u64>().map_err(|_| bad("bad number"));
            let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|_| bad("bad digest"));
            let len = |s: &str| s.parse::<usize>().map_err(|_| bad("bad length"));
            Ok(Reference {
                family: f[0].to_string(),
                seed_axis: uint(f[1])?,
                json: Digest {
                    len: len(f[2])?,
                    fnv: hex(f[3])?,
                },
                csv: Digest {
                    len: len(f[4])?,
                    fnv: hex(f[5])?,
                },
            })
        })
        .collect()
}

/// Finds the reference of `family` at `seed_axis`.
pub fn lookup<'a>(
    refs: &'a [Reference],
    family: &str,
    seed_axis: u64,
) -> Result<&'a Reference, String> {
    refs.iter()
        .find(|r| r.family == family && r.seed_axis == seed_axis)
        .ok_or_else(|| format!("no reference for {family} at seed axis {seed_axis}"))
}

/// Checks one report's bytes against its reference.
pub fn check(reference: &Reference, json: &str, csv: &str) -> Result<(), String> {
    for (what, want, bytes) in [
        ("JSON", reference.json, json.as_bytes()),
        ("CSV", reference.csv, csv.as_bytes()),
    ] {
        let got = Digest::of(bytes);
        if got != want {
            return Err(format!(
                "{} report {what} at seed axis {} differs from the reference: \
                 got {got}, want {want}",
                reference.family, reference.seed_axis
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_of(json: &str, csv: &str) -> Reference {
        Reference {
            family: "mixed".to_string(),
            seed_axis: 3,
            json: Digest::of(json.as_bytes()),
            csv: Digest::of(csv.as_bytes()),
        }
    }

    #[test]
    fn check_rejects_one_flipped_byte() {
        let json = r#"{"name":"mixed","cells":[{"index":0,"goodput_bps":1234.5}]}"#;
        let csv = "index,goodput_bps\n0,1234.5\n";
        let reference = reference_of(json, csv);
        assert_eq!(check(&reference, json, csv), Ok(()));
        for pos in 0..json.len() {
            for bit in 0..7 {
                let mut bytes = json.as_bytes().to_vec();
                bytes[pos] ^= 1 << bit;
                let flipped = String::from_utf8(bytes).unwrap();
                assert!(
                    check(&reference, &flipped, csv).is_err(),
                    "byte {pos} bit {bit}"
                );
            }
        }
        let mut bytes = csv.as_bytes().to_vec();
        bytes[0] ^= 1;
        assert!(check(&reference, json, &String::from_utf8(bytes).unwrap()).is_err());
    }

    #[test]
    fn reference_lines_round_trip() {
        let r = reference_of("{}", "a\n");
        let text = format!("{HEADER}\n{}\n", r.line());
        let parsed = parse_references(&text).unwrap();
        assert_eq!(parsed, vec![r.clone()]);
        assert_eq!(lookup(&parsed, "mixed", 3), Ok(&r));
        assert!(lookup(&parsed, "mixed", 4).is_err());
        assert!(parse_references("mixed\t1\t2\n").is_err());
    }

    #[test]
    fn committed_reference_covers_every_family_and_seed() {
        let text = include_str!("../reference.tsv");
        let refs = parse_references(text).unwrap();
        for family in crate::workload::FAMILIES {
            for s in 1..=crate::workload::REFERENCE_SEEDS {
                lookup(&refs, family, s).unwrap();
            }
        }
    }
}
