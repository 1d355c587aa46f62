//! CVSS v2 base scoring (the metric the paper's severity bands use).
//!
//! Implements the CVSS v2.0 base equation from the FIRST specification.
//! The paper classifies a flaw *critical* when the CVSS v2 score is ≥ 7.0
//! and *medium* when it is in [4.0, 7.0).

/// Access vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccessVector {
    /// Local access required.
    Local,
    /// Adjacent network.
    Adjacent,
    /// Network-reachable.
    Network,
}

/// Access complexity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccessComplexity {
    /// High complexity.
    High,
    /// Medium complexity.
    Medium,
    /// Low complexity.
    Low,
}

/// Authentication requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Authentication {
    /// Multiple authentications.
    Multiple,
    /// Single authentication.
    Single,
    /// No authentication.
    None,
}

/// Impact level for confidentiality/integrity/availability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Impact {
    /// No impact.
    None,
    /// Partial impact.
    Partial,
    /// Complete impact.
    Complete,
}

/// A CVSS v2 base vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CvssV2 {
    /// AV.
    pub(crate) av: AccessVector,
    /// AC.
    pub(crate) ac: AccessComplexity,
    /// Au.
    pub(crate) au: Authentication,
    /// C.
    pub(crate) c: Impact,
    /// I.
    pub(crate) i: Impact,
    /// A.
    pub(crate) a: Impact,
}

/// Severity bands used throughout the paper (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// CVSS v2 < 4.0.
    Low,
    /// 4.0 ≤ CVSS v2 < 7.0.
    Medium,
    /// CVSS v2 ≥ 7.0.
    Critical,
}

impl CvssV2 {
    /// Parses a `AV:N/AC:L/Au:N/C:C/I:C/A:C`-style vector string.
    pub fn parse(vector: &str) -> Option<CvssV2> {
        let mut av = None;
        let mut ac = None;
        let mut au = None;
        let (mut c, mut i, mut a) = (None, None, None);
        for part in vector.trim_matches(['(', ')']).split('/') {
            let (k, v) = part.split_once(':')?;
            match (k, v) {
                ("AV", "L") => av = Some(AccessVector::Local),
                ("AV", "A") => av = Some(AccessVector::Adjacent),
                ("AV", "N") => av = Some(AccessVector::Network),
                ("AC", "H") => ac = Some(AccessComplexity::High),
                ("AC", "M") => ac = Some(AccessComplexity::Medium),
                ("AC", "L") => ac = Some(AccessComplexity::Low),
                ("Au", "M") => au = Some(Authentication::Multiple),
                ("Au", "S") => au = Some(Authentication::Single),
                ("Au", "N") => au = Some(Authentication::None),
                ("C", x) => c = impact(x),
                ("I", x) => i = impact(x),
                ("A", x) => a = impact(x),
                _ => return None,
            }
        }
        Some(CvssV2 {
            av: av?,
            ac: ac?,
            au: au?,
            c: c?,
            i: i?,
            a: a?,
        })
    }

    /// The base score, per the CVSS v2.0 equation.
    pub fn base_score(&self) -> f64 {
        let impact = 10.41
            * (1.0
                - (1.0 - impact_weight(self.c))
                    * (1.0 - impact_weight(self.i))
                    * (1.0 - impact_weight(self.a)));
        let exploitability = 20.0 * av_weight(self.av) * ac_weight(self.ac) * au_weight(self.au);
        let f = if impact == 0.0 { 0.0 } else { 1.176 };
        let score = ((0.6 * impact) + (0.4 * exploitability) - 1.5) * f;
        (score * 10.0).round() / 10.0
    }

    /// The paper's severity band for this vector.
    pub fn severity(&self) -> Severity {
        severity_of(self.base_score())
    }
}

/// Maps a numeric score to the paper's bands.
pub(crate) fn severity_of(score: f64) -> Severity {
    if score >= 7.0 {
        Severity::Critical
    } else if score >= 4.0 {
        Severity::Medium
    } else {
        Severity::Low
    }
}

fn impact(s: &str) -> Option<Impact> {
    match s {
        "N" => Some(Impact::None),
        "P" => Some(Impact::Partial),
        "C" => Some(Impact::Complete),
        _ => None,
    }
}

fn av_weight(av: AccessVector) -> f64 {
    match av {
        AccessVector::Local => 0.395,
        AccessVector::Adjacent => 0.646,
        AccessVector::Network => 1.0,
    }
}

fn ac_weight(ac: AccessComplexity) -> f64 {
    match ac {
        AccessComplexity::High => 0.35,
        AccessComplexity::Medium => 0.61,
        AccessComplexity::Low => 0.71,
    }
}

fn au_weight(au: Authentication) -> f64 {
    match au {
        Authentication::Multiple => 0.45,
        Authentication::Single => 0.56,
        Authentication::None => 0.704,
    }
}

fn impact_weight(i: Impact) -> f64 {
    match i {
        Impact::None => 0.0,
        Impact::Partial => 0.275,
        Impact::Complete => 0.660,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_vectors_score_correctly() {
        // Reference scores from the CVSS v2 specification / NVD.
        for (vector, score) in [
            ("AV:N/AC:L/Au:N/C:C/I:C/A:C", 10.0),
            ("AV:N/AC:L/Au:N/C:N/I:N/A:C", 7.8),
            ("AV:L/AC:L/Au:N/C:C/I:C/A:C", 7.2),
            ("AV:N/AC:L/Au:N/C:P/I:P/A:P", 7.5),
            ("AV:L/AC:L/Au:N/C:N/I:N/A:C", 4.9),
            ("AV:N/AC:L/Au:N/C:N/I:N/A:N", 0.0),
        ] {
            let v = CvssV2::parse(vector).unwrap();
            assert_eq!(v.base_score(), score, "{vector}");
        }
    }

    #[test]
    fn venom_is_critical() {
        // CVE-2015-3456 (VENOM): AV:L/AC:L/Au:N/C:C/I:C/A:C -> 7.2.
        let v = CvssV2::parse("AV:L/AC:L/Au:N/C:C/I:C/A:C").unwrap();
        assert_eq!(v.base_score(), 7.2);
        assert_eq!(v.severity(), Severity::Critical);
    }

    #[test]
    fn dos_pair_is_medium() {
        // CVE-2015-8104 / CVE-2015-5307: AV:L/AC:L/Au:N/C:N/I:N/A:C -> 4.9.
        let v = CvssV2::parse("AV:L/AC:L/Au:N/C:N/I:N/A:C").unwrap();
        assert_eq!(v.base_score(), 4.9);
        assert_eq!(v.severity(), Severity::Medium);
    }

    #[test]
    fn bands() {
        assert_eq!(severity_of(7.0), Severity::Critical);
        assert_eq!(severity_of(6.9), Severity::Medium);
        assert_eq!(severity_of(4.0), Severity::Medium);
        assert_eq!(severity_of(3.9), Severity::Low);
    }

    #[test]
    fn bad_vectors_rejected() {
        assert!(CvssV2::parse("AV:N/AC:L").is_none());
        assert!(CvssV2::parse("AV:X/AC:L/Au:N/C:N/I:N/A:N").is_none());
        assert!(CvssV2::parse("").is_none());
    }

    #[test]
    fn parenthesized_vector_accepted() {
        assert!(CvssV2::parse("(AV:N/AC:L/Au:N/C:C/I:C/A:C)").is_some());
    }

    #[test]
    fn unknown_vectors_rejected_not_scored() {
        // An unknown vector must parse to None — never be silently
        // scored (a zero score would read as "not severe" and suppress a
        // transplant that should have happened). Covers a CVSS v3 vector
        // fed to the v2 parser, an unknown metric key, an unknown metric
        // value, and a keyless fragment.
        for vector in [
            "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
            "AV:N/AC:L/Au:N/C:N/I:N/A:N/E:F",
            "AV:N/AC:L/Au:N/C:X/I:N/A:N",
            "AV:N/AC:L/Au:N/C:N/I:N/garbage",
        ] {
            assert!(CvssV2::parse(vector).is_none(), "{vector}");
        }
    }
}
