//! IND candidate generation and pretests.
//!
//! "We build IND candidates by choosing pairs of potentially dependent
//! attributes and potentially referenced attributes. … The first phase is a
//! pretest on the cardinality of the distinct values of both attributes …
//! as the IND candidate cannot be satisfied if the number of distinct values
//! of the dependent attribute is greater than the number of distinct values
//! of the referenced attribute." (Sec. 2)
//!
//! The max-value pretest is the Sec. 4.1 improvement: "If the maximum of
//! the (potentially) dependent set is larger than the maximum of the
//! (potentially) referenced set, we can stop the test immediately."

use crate::attr::AttributeProfile;
use crate::metrics::RunMetrics;

/// An IND candidate `dep ⊆ ref` over attribute ids. A satisfied candidate
/// *is* an inclusion dependency, so the same type names both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Candidate {
    /// The (potentially) dependent attribute.
    pub dep: u32,
    /// The (potentially) referenced attribute.
    pub refd: u32,
}

impl Candidate {
    /// Builds a candidate.
    pub fn new(dep: u32, refd: u32) -> Self {
        Candidate { dep, refd }
    }
}

/// A satisfied candidate is an inclusion dependency.
pub type Ind = Candidate;

/// Which optional pretests run during candidate generation. The
/// cardinality pretest (paper phase 1) always runs.
#[derive(Debug, Clone, Default)]
pub struct PretestConfig {
    /// Max-value pretest (Sec. 4.1 improvement; off by default to match
    /// the baseline configuration of Tables 1 and 2).
    pub max_value: bool,
}

impl PretestConfig {
    /// The paper's Sec. 4.1 configuration: cardinality + max-value.
    pub fn with_max_value() -> Self {
        PretestConfig { max_value: true }
    }
}

/// Generates all IND candidates over `profiles`, applying the configured
/// pretests and recording counts in `metrics`.
///
/// Every ordered pair (dependent, referenced) with `dep != ref` is
/// considered; note "each referenced attribute is also in the set of
/// dependent attributes, but not vice versa" (Sec. 2) falls out of the
/// eligibility predicates. Output order is deterministic.
pub fn generate_candidates(
    profiles: &[AttributeProfile],
    pretests: &PretestConfig,
    metrics: &mut RunMetrics,
) -> Vec<Candidate> {
    let mut candidates =
        candidate_pairs(profiles, metrics, AttributeProfile::is_referenced_candidate);
    pretest(&mut candidates, profiles, pretests, metrics);
    candidates
}

/// Every ordered (dependent, referenced) pair of distinct attributes, in
/// id order, with an explicit referenced-side eligibility predicate,
/// counted into [`RunMetrics::pairs_considered`]; no pretest runs. The
/// default (unique columns) is the paper's FK-guessing heuristic; the n-ary
/// level-1 pass relaxes it to every non-empty attribute, because the
/// levelwise search needs the complete unary IND base for its projection
/// pruning.
pub(crate) fn candidate_pairs(
    profiles: &[AttributeProfile],
    metrics: &mut RunMetrics,
    ref_eligible: impl Fn(&AttributeProfile) -> bool,
) -> Vec<Candidate> {
    let deps: Vec<&AttributeProfile> = profiles
        .iter()
        .filter(|p| p.is_dependent_candidate())
        .collect();
    let refs: Vec<&AttributeProfile> = profiles.iter().filter(|p| ref_eligible(p)).collect();

    let mut out = Vec::new();
    for dep in &deps {
        for refd in &refs {
            if dep.id != refd.id {
                out.push(Candidate::new(dep.id, refd.id));
            }
        }
    }
    metrics.pairs_considered += out.len() as u64;
    out
}

/// Drops the candidates the pretests refute, keeping the rest in order, and
/// counts each drop: the cardinality pretest always, the max-value pretest
/// when `pretests` asks for it. `profiles` is indexed by the candidates'
/// ids — unary attributes, or the attribute sequences of one n-ary level,
/// whose distinct tuples and largest encoded tuple obey both tests alike.
pub(crate) fn pretest(
    candidates: &mut Vec<Candidate>,
    profiles: &[AttributeProfile],
    pretests: &PretestConfig,
    metrics: &mut RunMetrics,
) {
    candidates.retain(|c| {
        let (dep, refd) = (&profiles[c.dep as usize], &profiles[c.refd as usize]);
        if dep.distinct > refd.distinct {
            metrics.pruned_cardinality += 1;
            return false;
        }
        if pretests.max_value && dep.max > refd.max {
            metrics.pruned_max_value += 1;
            return false;
        }
        true
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind_storage::{DataType, QualifiedName};

    fn profile(id: u32, distinct: u64, min: &[u8], max: &[u8], unique: bool) -> AttributeProfile {
        AttributeProfile {
            id,
            name: QualifiedName::new("t", format!("c{id}")),
            data_type: DataType::Text,
            rows: distinct * 2,
            non_null: if unique { distinct } else { distinct * 2 },
            distinct,
            min: Some(min.to_vec()),
            max: Some(max.to_vec()),
        }
    }

    #[test]
    fn candidates_pair_dependents_with_references() {
        // 0: unique (ref+dep), 1: dup (dep only), 2: unique (ref+dep).
        let profiles = vec![
            profile(0, 10, b"a", b"m", true),
            profile(1, 5, b"a", b"m", false),
            profile(2, 10, b"a", b"m", true),
        ];
        let mut m = RunMetrics::new();
        let c = generate_candidates(&profiles, &PretestConfig::default(), &mut m);
        // deps {0,1,2} × refs {0,2} minus self-pairs = 4 pairs; none pruned.
        assert_eq!(
            c,
            vec![
                Candidate::new(0, 2),
                Candidate::new(1, 0),
                Candidate::new(1, 2),
                Candidate::new(2, 0),
            ]
        );
        assert_eq!(m.pairs_considered, 4);
        assert_eq!(m.candidates(), 4);
    }

    #[test]
    fn cardinality_pretest_prunes() {
        let profiles = vec![
            profile(0, 100, b"a", b"m", true), // big
            profile(1, 5, b"a", b"m", true),   // small
        ];
        let mut m = RunMetrics::new();
        let c = generate_candidates(&profiles, &PretestConfig::default(), &mut m);
        // 0 ⊆ 1 impossible (100 > 5); 1 ⊆ 0 stays.
        assert_eq!(c, vec![Candidate::new(1, 0)]);
        assert_eq!(m.pruned_cardinality, 1);
    }

    #[test]
    fn max_value_pretest_prunes() {
        let profiles = vec![
            profile(0, 5, b"a", b"z", true), // max beyond ref's
            profile(1, 5, b"a", b"m", true),
        ];
        let mut m = RunMetrics::new();
        let c = generate_candidates(&profiles, &PretestConfig::with_max_value(), &mut m);
        assert_eq!(c, vec![Candidate::new(1, 0)]);
        assert_eq!(m.pruned_max_value, 1);

        // Without the pretest both directions survive (equal cardinalities).
        let mut m2 = RunMetrics::new();
        let c2 = generate_candidates(&profiles, &PretestConfig::default(), &mut m2);
        assert_eq!(c2.len(), 2);
    }

    #[test]
    fn empty_and_lob_attributes_never_appear() {
        let mut lob = profile(0, 5, b"a", b"m", true);
        lob.data_type = DataType::Lob;
        let mut empty = profile(1, 0, b"", b"", false);
        empty.non_null = 0;
        empty.min = None;
        empty.max = None;
        let normal = profile(2, 3, b"a", b"m", true);
        let mut m = RunMetrics::new();
        let c = generate_candidates(&[lob, empty, normal], &PretestConfig::default(), &mut m);
        // lob is referenced-eligible but not dependent-eligible; empty is
        // neither; so the only pair is normal ⊆ lob.
        assert_eq!(c, vec![Candidate::new(2, 0)]);
    }

    #[test]
    fn pair_count_matches_formula_for_all_unique_attributes() {
        // With n unique attributes of equal cardinality nothing is pruned,
        // and the generator examines n² − n ordered pairs (the paper's
        // (n²−n)/2 tests count unordered pairs after the cardinality
        // comparison collapses directions).
        let profiles: Vec<_> = (0..6).map(|i| profile(i, 10, b"a", b"m", true)).collect();
        let mut m = RunMetrics::new();
        let c = generate_candidates(&profiles, &PretestConfig::default(), &mut m);
        assert_eq!(c.len(), 6 * 6 - 6);
        assert_eq!(m.pairs_considered, 30);
        assert_eq!(m.pruned_cardinality, 0);
    }
}
