//! Pareto-front extraction for two-objective design plots.

use baton_telemetry::metrics::{kind, Family};

/// Returns the indices of the Pareto-optimal points for two minimized
/// objectives `(x, y)` (no other point is <= in both and < in one).
///
/// # NaN contract
///
/// A NaN objective has no defined dominance order, so points whose key
/// contains a NaN are excluded from the front (they can neither dominate
/// nor be fairly compared). Debug builds additionally assert no NaN was
/// seen, since upstream scoring is expected to produce finite-or-infinite
/// values only.
///
/// ```
/// let pts = [(1.0, 5.0), (2.0, 2.0), (3.0, 4.0), (4.0, 1.0)];
/// let front = baton_dse::pareto_front(&pts, |p| *p);
/// assert_eq!(front, vec![0, 1, 3]);
/// ```
pub fn pareto_front<T>(points: &[T], key: impl Fn(&T) -> (f64, f64)) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..points.len())
        .filter(|&i| {
            let (x, y) = key(&points[i]);
            let clean = !x.is_nan() && !y.is_nan();
            debug_assert!(clean, "NaN objective at point {i}: ({x}, {y})");
            clean
        })
        .collect();
    idx.sort_by(|&a, &b| {
        let (xa, ya) = key(&points[a]);
        let (xb, yb) = key(&points[b]);
        // total_cmp is safe here: NaN keys were filtered above.
        xa.total_cmp(&xb).then(ya.total_cmp(&yb))
    });
    let mut front = Vec::new();
    let mut best_y = f64::INFINITY;
    for i in idx {
        let (_, y) = key(&points[i]);
        if y < best_y {
            front.push(i);
            best_y = y;
        }
    }
    front.sort_unstable();
    front
}

/// The objective axis on which an eliminated point lost to its dominator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LosingAxis {
    /// Tied on y, strictly worse on x.
    X,
    /// Tied on x, strictly worse on y.
    Y,
    /// Strictly worse on both objectives.
    Both,
}

impl LosingAxis {
    /// Short lowercase name for rendering (`"x"`, `"y"`, `"both"`).
    pub fn name(self) -> &'static str {
        match self {
            LosingAxis::X => "x",
            LosingAxis::Y => "y",
            LosingAxis::Both => "both",
        }
    }
}

/// Why a point was left off the Pareto front.
#[derive(Debug, Clone, PartialEq)]
pub enum Elimination {
    /// A front member strictly dominates this point.
    Dominated {
        /// Index (into the original slice) of the dominating front member.
        by: usize,
        /// Per-axis losing margins `(xi - xd, yi - yd)`, both `>= 0`.
        margin: (f64, f64),
        /// Which axis the point lost on.
        axis: LosingAxis,
    },
    /// Exact duplicate of an earlier point that made the front.
    DuplicateOf(usize),
    /// A NaN objective excluded the point from dominance comparison.
    NanObjective,
}

/// One Pareto-front member with the points it personally eliminated.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontMember {
    /// Index into the original point slice.
    pub index: usize,
    /// Indices of eliminated points for which this member was the
    /// strongest dominator (largest combined margin).
    pub dominated: Vec<usize>,
}

/// Full dominance accounting for one `pareto_front` call: the front plus,
/// for every eliminated point, who beat it and by how much.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParetoProvenance {
    /// Front members, ascending by original index — the same index set as
    /// [`pareto_front`] returns, in the same order.
    pub front: Vec<FrontMember>,
    /// `(index, why)` for every point not on the front, ascending by index.
    pub eliminated: Vec<(usize, Elimination)>,
}

impl ParetoProvenance {
    /// The front as a plain index vector (identical to [`pareto_front`]).
    pub fn front_indices(&self) -> Vec<usize> {
        self.front.iter().map(|m| m.index).collect()
    }
}

/// Like [`pareto_front`], but also explains every elimination.
///
/// For each point off the front the provenance names the front member that
/// dominates it with the largest combined margin (the "strongest"
/// dominator), the per-axis margins, and the losing axis; exact duplicates
/// of a front member are tagged [`Elimination::DuplicateOf`], and NaN-keyed
/// points [`Elimination::NanObjective`]. The front itself is exactly
/// `pareto_front(points, key)`.
pub fn pareto_provenance<T>(points: &[T], key: impl Fn(&T) -> (f64, f64)) -> ParetoProvenance {
    let front_idx = pareto_front(points, &key);
    let mut front: Vec<FrontMember> = front_idx
        .iter()
        .map(|&index| FrontMember {
            index,
            dominated: Vec::new(),
        })
        .collect();
    let on_front: std::collections::HashSet<usize> = front_idx.iter().copied().collect();
    let mut eliminated = Vec::new();
    for i in 0..points.len() {
        if on_front.contains(&i) {
            continue;
        }
        let (xi, yi) = key(&points[i]);
        if xi.is_nan() || yi.is_nan() {
            eliminated.push((i, Elimination::NanObjective));
            continue;
        }
        // Find the strongest dominator: the front member that beats this
        // point by the largest combined margin. The front is mutually
        // non-dominated, so at least one member dominates every clean
        // eliminated point — unless it is an exact duplicate of one.
        let mut best: Option<(usize, (f64, f64))> = None;
        let mut duplicate_of = None;
        for (slot, member) in front.iter().enumerate() {
            let (xd, yd) = key(&points[member.index]);
            if xd == xi && yd == yi {
                duplicate_of.get_or_insert(member.index);
                continue;
            }
            let dominates = (xd <= xi && yd < yi) || (xd < xi && yd <= yi);
            if !dominates {
                continue;
            }
            let margin = (xi - xd, yi - yd);
            if best.is_none_or(|(_, m)| margin.0 + margin.1 > m.0 + m.1) {
                best = Some((slot, margin));
            }
        }
        let why = match (best, duplicate_of) {
            (Some((slot, margin)), _) => {
                front[slot].dominated.push(i);
                let axis = match (margin.0 > 0.0, margin.1 > 0.0) {
                    (true, true) => LosingAxis::Both,
                    (false, true) => LosingAxis::Y,
                    (true, false) => LosingAxis::X,
                    // Zero margin on both axes is a duplicate, handled above.
                    (false, false) => unreachable!("zero-margin domination"),
                };
                Elimination::Dominated {
                    by: front[slot].index,
                    margin,
                    axis,
                }
            }
            (None, Some(of)) => Elimination::DuplicateOf(of),
            (None, None) => {
                unreachable!("point {i} is off the front but neither dominated nor a duplicate")
            }
        };
        eliminated.push((i, why));
    }
    ParetoProvenance { front, eliminated }
}

/// The Pareto front-size gauge of the last completed sweep, by `flow`.
pub const FRONT_SIZE: Family<kind::Gauge> = Family::gauge(
    "baton_sweep_front_size",
    "Pareto front size of the last completed sweep, by flow.",
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominated_points_are_excluded() {
        let pts = [(1.0, 1.0), (2.0, 2.0), (0.5, 3.0)];
        let front = pareto_front(&pts, |p| *p);
        assert_eq!(front, vec![0, 2]);
    }

    #[test]
    fn duplicate_x_keeps_lowest_y() {
        let pts = [(1.0, 5.0), (1.0, 2.0)];
        let front = pareto_front(&pts, |p| *p);
        assert_eq!(front, vec![1]);
    }

    #[test]
    fn empty_and_singleton() {
        let empty: [(f64, f64); 0] = [];
        assert!(pareto_front(&empty, |p| *p).is_empty());
        assert_eq!(pareto_front(&[(3.0, 3.0)], |p| *p), vec![0]);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "NaN objective"))]
    fn nan_points_never_join_the_front() {
        // Release builds silently drop NaN points; debug builds flag the
        // upstream bug loudly.
        let pts = [(1.0, f64::NAN), (f64::NAN, 1.0), (2.0, 2.0)];
        let front = pareto_front(&pts, |p| *p);
        assert_eq!(front, vec![2]);
    }

    #[test]
    fn infinities_still_order_totally() {
        let pts = [(f64::INFINITY, 0.5), (1.0, 1.0), (2.0, f64::INFINITY)];
        let front = pareto_front(&pts, |p| *p);
        // (1,1) dominates (2,inf); (inf,0.5) survives on the y axis.
        assert_eq!(front, vec![0, 1]);
    }

    /// Textbook O(n²) reference: point `i` is on the front iff no other
    /// point dominates it and no *earlier* exact duplicate exists (the
    /// sweep keeps only the first copy of a duplicated point).
    fn naive_front(pts: &[(f64, f64)]) -> Vec<usize> {
        (0..pts.len())
            .filter(|&i| {
                let (xi, yi) = pts[i];
                !(0..pts.len()).any(|j| {
                    if j == i {
                        return false;
                    }
                    let (xj, yj) = pts[j];
                    let dominates = (xj <= xi && yj < yi) || (xj < xi && yj <= yi);
                    let earlier_duplicate = xj == xi && yj == yi && j < i;
                    dominates || earlier_duplicate
                })
            })
            .collect()
    }

    #[test]
    fn provenance_names_the_dominator_and_losing_axis() {
        let pts = [(1.0, 5.0), (2.0, 2.0), (4.0, 1.0), (2.0, 6.0), (4.0, 2.0)];
        let prov = pareto_provenance(&pts, |p| *p);
        assert_eq!(prov.front_indices(), vec![0, 1, 2]);
        // (2,6) loses to (2,2) on y alone; (4,2) loses to (2,2) with the
        // larger combined margin than (4,1) gives.
        assert_eq!(
            prov.eliminated,
            vec![
                (
                    3,
                    Elimination::Dominated {
                        by: 1,
                        margin: (0.0, 4.0),
                        axis: LosingAxis::Y,
                    }
                ),
                (
                    4,
                    Elimination::Dominated {
                        by: 1,
                        margin: (2.0, 0.0),
                        axis: LosingAxis::X,
                    }
                ),
            ]
        );
        let member = prov.front.iter().find(|m| m.index == 1).unwrap();
        assert_eq!(member.dominated, vec![3, 4]);
    }

    #[test]
    fn provenance_tags_duplicates_and_nans() {
        let pts = [(1.0, 1.0), (1.0, 1.0), (f64::NAN, 0.0)];
        // Release-mode semantics: debug builds assert on NaN upstream.
        if cfg!(debug_assertions) {
            return;
        }
        let prov = pareto_provenance(&pts, |p| *p);
        assert_eq!(prov.front_indices(), vec![0]);
        assert_eq!(
            prov.eliminated,
            vec![
                (1, Elimination::DuplicateOf(0)),
                (2, Elimination::NanObjective),
            ]
        );
    }

    #[test]
    fn duplicate_of_front_member_is_not_counted_as_dominated() {
        let pts = [(1.0, 2.0), (1.0, 2.0), (2.0, 1.0)];
        let prov = pareto_provenance(&pts, |p| *p);
        assert_eq!(prov.front_indices(), vec![0, 2]);
        assert_eq!(prov.eliminated, vec![(1, Elimination::DuplicateOf(0))]);
        assert!(prov.front.iter().all(|m| m.dominated.is_empty()));
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn sweep_front_agrees_with_the_quadratic_reference(
            raw in proptest::collection::vec((0u32..24, 0u32..24), 0..80)
        ) {
            // Small integer coordinates force heavy ties and duplicates —
            // exactly the cases where a sort-then-sweep can drift from the
            // dominance definition.
            let pts: Vec<(f64, f64)> =
                raw.iter().map(|&(x, y)| (f64::from(x), f64::from(y))).collect();
            prop_assert_eq!(pareto_front(&pts, |p| *p), naive_front(&pts));
        }

        #[test]
        fn provenance_front_matches_pareto_front_and_dominators_dominate(
            raw in proptest::collection::vec((0u32..24, 0u32..24), 0..80)
        ) {
            let pts: Vec<(f64, f64)> =
                raw.iter().map(|&(x, y)| (f64::from(x), f64::from(y))).collect();
            let prov = pareto_provenance(&pts, |p| *p);
            // (1) The provenance front IS the pareto front.
            prop_assert_eq!(prov.front_indices(), pareto_front(&pts, |p| *p));
            // (2) Front + eliminated partition the index set.
            let mut all: Vec<usize> = prov
                .front
                .iter()
                .map(|m| m.index)
                .chain(prov.eliminated.iter().map(|&(i, _)| i))
                .collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..pts.len()).collect::<Vec<_>>());
            // (3) Every named dominator actually dominates, with the
            // stated margins; every duplicate is exactly equal.
            for &(i, ref why) in &prov.eliminated {
                let (xi, yi) = pts[i];
                match *why {
                    Elimination::Dominated { by, margin, axis } => {
                        let (xd, yd) = pts[by];
                        prop_assert!(
                            (xd <= xi && yd < yi) || (xd < xi && yd <= yi),
                            "front point {} does not dominate {}", by, i
                        );
                        prop_assert_eq!(margin, (xi - xd, yi - yd));
                        let expect = match (margin.0 > 0.0, margin.1 > 0.0) {
                            (true, true) => LosingAxis::Both,
                            (false, true) => LosingAxis::Y,
                            _ => LosingAxis::X,
                        };
                        prop_assert_eq!(axis, expect);
                        let member =
                            prov.front.iter().find(|m| m.index == by).unwrap();
                        prop_assert!(member.dominated.contains(&i));
                    }
                    Elimination::DuplicateOf(of) => {
                        prop_assert_eq!(pts[of], (xi, yi));
                        prop_assert!(prov.front.iter().any(|m| m.index == of));
                    }
                    Elimination::NanObjective => {
                        prop_assert!(xi.is_nan() || yi.is_nan());
                    }
                }
            }
        }
    }
}
