//! VarSaw's spatial optimization: Commuting of Pauli String Subsets.
//!
//! JigSaw generates measurement subsets per circuit and is blind to the
//! application, so subsets repeat and commute across the Pauli strings of a
//! VQA Hamiltonian (Section 3.2). VarSaw instead generates subsets for
//! *every* Hamiltonian Pauli string first and only then applies
//! commutativity-based reduction (Fig.10, right) — deduplicating repeats
//! and absorbing covered subsets into covering ones, exactly the reduction
//! that takes Fig.6's 21 JigSaw subsets down to 9.
//!
//! The [`SpatialPlan`] also records, for every measurement-basis circuit
//! and every one of its reconstruction windows, *which* reduced subset
//! group serves it — at execution time the group's outcome distribution is
//! marginalized onto the window, so one executed circuit feeds many
//! reconstructions. Many windows share a (group, window support) pair, so
//! the plan also lists the distinct pairs once: each is marginalized once
//! per evaluation, however many basis circuits use it.

use mitigation::sliding_windows;
use pauli::{group_by_cover, Hamiltonian, MeasurementGroup, PauliString};
use std::collections::{HashMap, HashSet};

/// One reconstruction window of a measurement-basis circuit, with the
/// reduced subset group that provides its local distribution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowCoverage {
    /// The window subset descriptor (basis restricted to the window); its
    /// support is the qubits the local PMF covers.
    pub subset: PauliString,
    /// Index into [`SpatialPlan::subset_groups`] of the circuit that
    /// measures this subset.
    pub group: usize,
}

/// Aggregate circuit-count statistics — the quantities plotted in Fig.12.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpatialStats {
    /// Pauli terms in the Hamiltonian (excluding identity).
    pub hamiltonian_terms: usize,
    /// Baseline circuits per iteration (post-commutation bases, Eq.2).
    pub baseline_circuits: usize,
    /// Subsets JigSaw executes per iteration (per-circuit windows, no
    /// cross-circuit reduction, Eq.3).
    pub jigsaw_subsets: usize,
    /// Subsets VarSaw executes per iteration after commuting (Eq.4).
    pub varsaw_subsets: usize,
}

impl SpatialStats {
    /// JigSaw subsets relative to baseline circuits (Fig.12 orange bars).
    pub fn jigsaw_ratio(&self) -> f64 {
        self.jigsaw_subsets as f64 / self.baseline_circuits.max(1) as f64
    }

    /// VarSaw subsets relative to baseline circuits (Fig.12 orange bars).
    pub fn varsaw_ratio(&self) -> f64 {
        self.varsaw_subsets as f64 / self.baseline_circuits.max(1) as f64
    }

    /// The VarSaw:JigSaw subset reduction factor (Fig.12 green line).
    pub fn reduction(&self) -> f64 {
        self.jigsaw_subsets as f64 / self.varsaw_subsets.max(1) as f64
    }
}

/// The spatial execution plan for a Hamiltonian: the reduced subset
/// circuits, the basis circuits they serve, and the per-window coverage
/// map.
///
/// # Examples
///
/// The paper's Fig.6 worked example:
///
/// ```
/// use pauli::Hamiltonian;
/// use varsaw::SpatialPlan;
///
/// let h = Hamiltonian::from_pairs(4, &[
///     (1.0, "ZZIZ"), (1.0, "ZIZX"), (1.0, "ZZII"), (1.0, "IIZX"), (1.0, "ZXXZ"),
///     (1.0, "XZIZ"), (1.0, "ZXIZ"), (1.0, "IXZZ"), (1.0, "XIZZ"), (1.0, "XXIX"),
/// ]);
/// let plan = SpatialPlan::new(&h, 2);
/// let stats = plan.stats();
/// assert_eq!(stats.baseline_circuits, 7);  // Eq.2
/// assert_eq!(stats.jigsaw_subsets, 21);    // Eq.3
/// assert_eq!(stats.varsaw_subsets, 9);     // Eq.4
/// ```
#[derive(Clone, Debug)]
pub struct SpatialPlan {
    window: usize,
    bases: Vec<PauliString>,
    subset_groups: Vec<MeasurementGroup>,
    coverage: Vec<Vec<WindowCoverage>>,
    /// The distinct (subset group, window support) pairs of `coverage`,
    /// in first-use order.
    geometries: Vec<(usize, Vec<usize>)>,
    /// The `geometries` index of each covered window, basis after basis;
    /// basis `b`'s windows start at `geometry_starts[b]`.
    geometry_of: Vec<usize>,
    geometry_starts: Vec<usize>,
    stats: SpatialStats,
}

impl SpatialPlan {
    /// Builds the plan for a Hamiltonian with the given subset window size.
    ///
    /// Pipeline (Fig.10, right): generate window subsets for every
    /// measurable Pauli string → deduplicate → cover-based commuting
    /// reduction → map every basis circuit window onto its covering group.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or the Hamiltonian has no measurable terms.
    pub fn new(hamiltonian: &Hamiltonian, window: usize) -> Self {
        Self::with_coefficient_floor(hamiltonian, window, 0.0)
    }

    /// Like [`SpatialPlan::new`], but generates subsets only for terms with
    /// `|coefficient| >= floor` — the paper's proposed extension of
    /// employing mitigation "only to specific terms in the Hamiltonian —
    /// i.e., only employ mitigation where it matters most" (Section 7.3).
    ///
    /// Basis-circuit windows whose subset never entered the pool simply get
    /// no local PMF: those reconstructions fall back to the (noisy) global
    /// for that window, trading accuracy for fewer subset circuits. A floor
    /// of 0 reproduces full VarSaw; a floor above every coefficient leaves
    /// pure baseline measurement.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`, `floor < 0`, or the Hamiltonian has no
    /// measurable terms.
    pub fn with_coefficient_floor(hamiltonian: &Hamiltonian, window: usize, floor: f64) -> Self {
        assert!(window > 0, "window size must be positive");
        assert!(floor >= 0.0, "coefficient floor must be nonnegative");
        let terms = hamiltonian.measurable_terms();
        let strings: Vec<PauliString> = terms.iter().map(|t| t.string().clone()).collect();
        assert!(
            !strings.is_empty(),
            "Hamiltonian has no measurable terms to plan for"
        );

        // Baseline bases: trivial qubit commutation over the terms (Eq.2).
        let bases: Vec<PauliString> = group_by_cover(&strings)
            .into_iter()
            .map(|g| g.basis)
            .collect();

        // VarSaw subset pool: windows of every *important* Pauli string,
        // deduplicated.
        let mut unique: Vec<PauliString> = Vec::new();
        let mut seen: HashSet<PauliString> = HashSet::new();
        for t in &terms {
            if t.coeff().abs() < floor {
                continue;
            }
            for w in sliding_windows(t.string(), window) {
                if !seen.contains(&w) {
                    seen.insert(w.clone());
                    unique.push(w);
                }
            }
        }

        // Commuting reduction over the pooled subsets (Eq.3 → Eq.4).
        let subset_groups = group_by_cover(&unique);

        // Index: subset string → its pool index; pool index → covering
        // group.
        let mut index_of: HashMap<&PauliString, usize> = HashMap::new();
        let mut group_of = vec![0; unique.len()];
        for (gi, g) in subset_groups.iter().enumerate() {
            for &m in &g.members {
                index_of.insert(&unique[m], m);
                group_of[m] = gi;
            }
        }

        // Coverage of each basis circuit's windows. With a zero floor every
        // basis window is in the pool (bases are seed terms); with a
        // positive floor, uncovered windows are skipped and their
        // reconstruction relies on the global alone.
        //
        // A group's basis agrees with each member on the member's
        // support, so a (group, window support) geometry is exactly one
        // pooled subset: geometries are numbered per pooled subset, on
        // first use.
        let mut jigsaw_subsets = 0usize;
        let mut geometries: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut geometry_of_subset = vec![None; unique.len()];
        let mut geometry_of = Vec::new();
        let mut geometry_starts = vec![0];
        let coverage: Vec<Vec<WindowCoverage>> = bases
            .iter()
            .map(|b| {
                let windows = sliding_windows(b, window);
                jigsaw_subsets += windows.len();
                let covered = windows
                    .into_iter()
                    .filter_map(|s| {
                        let m = *index_of.get(&s)?;
                        let group = group_of[m];
                        let geometry = *geometry_of_subset[m].get_or_insert_with(|| {
                            geometries.push((group, s.support()));
                            geometries.len() - 1
                        });
                        geometry_of.push(geometry);
                        Some(WindowCoverage { subset: s, group })
                    })
                    .collect();
                geometry_starts.push(geometry_of.len());
                covered
            })
            .collect();

        let stats = SpatialStats {
            hamiltonian_terms: strings.len(),
            baseline_circuits: bases.len(),
            jigsaw_subsets,
            varsaw_subsets: subset_groups.len(),
        };

        SpatialPlan {
            window,
            bases,
            subset_groups,
            coverage,
            geometries,
            geometry_of,
            geometry_starts,
            stats,
        }
    }

    /// The subset window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The measurement bases of the baseline circuits (Eq.2), in group
    /// order.
    pub fn bases(&self) -> &[PauliString] {
        &self.bases
    }

    /// The reduced subset circuits VarSaw executes each iteration (Eq.4).
    /// Each group's basis has support confined to one window.
    pub fn subset_groups(&self) -> &[MeasurementGroup] {
        &self.subset_groups
    }

    /// The reconstruction windows of basis circuit `b` and the subset
    /// groups covering them.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn coverage(&self, b: usize) -> &[WindowCoverage] {
        &self.coverage[b]
    }

    /// The distinct (subset group, window support) pairs over all
    /// coverage: marginalizing each group's PMF onto each listed support
    /// yields every local PMF an evaluation needs.
    pub(crate) fn geometries(&self) -> &[(usize, Vec<usize>)] {
        &self.geometries
    }

    /// The [`geometries`](SpatialPlan::geometries) index of each window
    /// of basis circuit `b`, in [`coverage`](SpatialPlan::coverage) order.
    pub(crate) fn geometry_of(&self, b: usize) -> &[usize] {
        &self.geometry_of[self.geometry_starts[b]..self.geometry_starts[b + 1]]
    }

    /// Circuit-count statistics (Fig.12).
    pub fn stats(&self) -> SpatialStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig6_hamiltonian() -> Hamiltonian {
        Hamiltonian::from_pairs(
            4,
            &[
                (1.0, "ZZIZ"),
                (1.0, "ZIZX"),
                (1.0, "ZZII"),
                (1.0, "IIZX"),
                (1.0, "ZXXZ"),
                (1.0, "XZIZ"),
                (1.0, "ZXIZ"),
                (1.0, "IXZZ"),
                (1.0, "XIZZ"),
                (1.0, "XXIX"),
            ],
        )
    }

    #[test]
    fn fig6_counts_are_reproduced_exactly() {
        let plan = SpatialPlan::new(&fig6_hamiltonian(), 2);
        let s = plan.stats();
        assert_eq!(s.hamiltonian_terms, 10);
        assert_eq!(s.baseline_circuits, 7);
        assert_eq!(s.jigsaw_subsets, 21);
        assert_eq!(s.varsaw_subsets, 9);
        assert!((s.reduction() - 21.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn fig6_varsaw_groups_match_eq4() {
        let plan = SpatialPlan::new(&fig6_hamiltonian(), 2);
        let mut bases: Vec<String> = plan
            .subset_groups()
            .iter()
            .map(|g| g.basis.to_string())
            .collect();
        bases.sort();
        let mut expected: Vec<String> = [
            "ZZII", "IIZX", "ZXII", "IXXI", "IIXZ", "XZII", "IXZI", "IIZZ", "XXII",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        expected.sort();
        assert_eq!(bases, expected);
    }

    #[test]
    fn every_window_is_covered_by_its_group() {
        let plan = SpatialPlan::new(&fig6_hamiltonian(), 2);
        for (b, _) in plan.bases().iter().enumerate() {
            for wc in plan.coverage(b) {
                let group = &plan.subset_groups()[wc.group];
                assert!(
                    group.basis.covers(&wc.subset),
                    "group {} does not cover window {}",
                    group.basis,
                    wc.subset
                );
            }
        }
    }

    #[test]
    fn geometries_list_each_window_pair_once() {
        let plan = SpatialPlan::new(&fig6_hamiltonian(), 2);
        let mut seen = std::collections::HashSet::new();
        for g in plan.geometries() {
            assert!(seen.insert(g.clone()), "geometry {g:?} listed twice");
        }
        let mut used = vec![false; plan.geometries().len()];
        for b in 0..plan.bases().len() {
            assert_eq!(plan.geometry_of(b).len(), plan.coverage(b).len());
            for (wc, &i) in plan.coverage(b).iter().zip(plan.geometry_of(b)) {
                assert_eq!(plan.geometries()[i], (wc.group, wc.subset.support()));
                used[i] = true;
            }
        }
        assert!(used.iter().all(|&u| u), "every geometry serves a window");
    }

    #[test]
    fn subset_group_supports_fit_the_window() {
        let plan = SpatialPlan::new(&fig6_hamiltonian(), 2);
        for g in plan.subset_groups() {
            let sup = g.basis.support();
            assert!(!sup.is_empty());
            assert!(sup.last().unwrap() - sup.first().unwrap() < plan.window());
        }
    }

    #[test]
    fn varsaw_never_exceeds_jigsaw() {
        for window in [2, 3] {
            let plan = SpatialPlan::new(&fig6_hamiltonian(), window);
            let s = plan.stats();
            assert!(s.varsaw_subsets <= s.jigsaw_subsets);
        }
    }

    #[test]
    fn single_term_hamiltonian_plans_trivially() {
        let h = Hamiltonian::from_pairs(3, &[(1.0, "ZZZ")]);
        let plan = SpatialPlan::new(&h, 2);
        assert_eq!(plan.stats().baseline_circuits, 1);
        assert_eq!(plan.stats().jigsaw_subsets, 2);
        assert_eq!(plan.stats().varsaw_subsets, 2);
    }

    #[test]
    #[should_panic(expected = "no measurable terms")]
    fn identity_only_hamiltonian_rejected() {
        let h = Hamiltonian::from_pairs(2, &[(1.0, "II")]);
        SpatialPlan::new(&h, 2);
    }
}
