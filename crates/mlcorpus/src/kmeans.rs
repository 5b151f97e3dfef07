//! The Kmeans module (Table V: 179 LoC).
//!
//! A port of an open-source 1-D k-means clusterer (k = 2, smoothed
//! centroid updates, inertia reporting) into a Mini-C enclave. The module
//! is *clean*: centroids are smoothed aggregates over the whole batch plus
//! the previous (already-mixed) centroid, so every observable output
//! carries ⊤ taint. The `/* inject: … */` markers are the anchor points
//! used by [`crate::inject`] for case study 2 (the clean build treats them
//! as comments).

use std::sync::LazyLock;

use crate::Module;

/// The enclave source (179 LoC, matching the paper's Table V).
pub const SOURCE: &str = r#"/* Kmeans enclave module: 1-D clustering with smoothed updates. */
int NUM_POINTS = 10;
int NUM_CLUSTERS = 2;
int MAX_ITERS = 3;

void ocall_progress(int step);
void ocall_debug(int value);

double point_at(double *points, int index) {
    return points[index];
}

double batch_mean(double *points) {
    double total = 0.0;
    int i = 0;
    for (i = 0; i < 10; i++) {
        total = total + point_at(points, i);
    }
    return total / 10.0;
}

double batch_spread(double *points, double mean) {
    double accum = 0.0;
    int i = 0;
    for (i = 0; i < 10; i++) {
        double delta = point_at(points, i) - mean;
        accum = accum + delta * delta;
    }
    double variance = accum / 10.0;
    return sqrt(variance + 0.000001);
}

void init_centroids(double *points, double *centroids) {
    double mean = batch_mean(points);
    double spread = batch_spread(points, mean);
    double half_spread = spread * 0.5;
    centroids[0] = mean - half_spread;
    centroids[1] = mean + half_spread;
}

double safe_divide(double num, double den) {
    double guarded = den + 0.000001;
    return num / guarded;
}

double squared_distance(double a, double b) {
    double diff = a - b;
    return diff * diff;
}

double absolute_value(double x) {
    double squared = x * x;
    return sqrt(squared);
}

void copy_centroids(double *src, double *dst) {
    int k = 0;
    for (k = 0; k < 2; k++) {
        dst[k] = src[k];
    }
}

double centroid_shift(double *old_c, double *new_c) {
    double shift = 0.0;
    int k = 0;
    for (k = 0; k < 2; k++) {
        double delta = new_c[k] - old_c[k];
        shift = shift + absolute_value(delta);
    }
    return shift;
}

double smaller_of(double a, double b) {
    double mid = (a + b) * 0.5;
    double gap = a - b;
    double half_gap = absolute_value(gap) * 0.5;
    return mid - half_gap;
}

double larger_of(double a, double b) {
    double mid = (a + b) * 0.5;
    double gap = a - b;
    double half_gap = absolute_value(gap) * 0.5;
    return mid + half_gap;
}

int nearest_centroid(double value, double *centroids) {
    double d0 = squared_distance(value, centroids[0]);
    double d1 = squared_distance(value, centroids[1]);
    if (d1 < d0) {
        return 1;
    }
    return 0;
}

void assign_points(double *points, double *centroids, int *assignments) {
    int i = 0;
    for (i = 0; i < 10; i++) {
        double value = point_at(points, i);
        assignments[i] = nearest_centroid(value, centroids);
    }
}

void zero_accumulators(double *sums, double *counts) {
    int k = 0;
    for (k = 0; k < 2; k++) {
        sums[k] = 0.0;
        counts[k] = 0.0;
    }
}

void accumulate_clusters(double *points, int *assignments,
                         double *sums, double *counts) {
    int i = 0;
    for (i = 0; i < 10; i++) {
        int cluster = assignments[i];
        double value = point_at(points, i);
        sums[cluster] = sums[cluster] + value;
        counts[cluster] = counts[cluster] + 1.0;
    }
}

void update_centroids(double *centroids, double *sums, double *counts) {
    int k = 0;
    for (k = 0; k < 2; k++) {
        double smoothed_sum = sums[k] + centroids[k];
        double smoothed_count = counts[k] + 1.0;
        centroids[k] = safe_divide(smoothed_sum, smoothed_count);
    }
}

double compute_inertia(double *points, double *centroids, int *assignments) {
    double total = 0.0;
    int i = 0;
    for (i = 0; i < 10; i++) {
        double value = point_at(points, i);
        int cluster = assignments[i];
        double centroid = centroids[cluster];
        total = total + squared_distance(value, centroid);
    }
    return total;
}

double cluster_inertia(double *points, double *centroids,
                       int *assignments, int target) {
    double total = 0.0;
    int i = 0;
    for (i = 0; i < 10; i++) {
        int cluster = assignments[i];
        double value = point_at(points, i);
        double centroid = centroids[cluster];
        double offset = (double)(cluster - target);
        double match = 1.0 - absolute_value(offset);
        total = total + match * squared_distance(value, centroid);
    }
    return total;
}

double cluster_balance(double *counts) {
    double larger = counts[0];
    double smaller = counts[1];
    double numerator = smaller + 1.0;
    double denominator = larger + 1.0;
    return safe_divide(numerator, denominator);
}

void run_iterations(double *points, double *centroids, int *assignments,
                    double *sums, double *counts, double *shift_cell) {
    double previous[2];
    int iter = 0;
    shift_cell[0] = 0.0;
    for (iter = 0; iter < 3; iter++) {
        copy_centroids(centroids, previous);
        assign_points(points, centroids, assignments);
        zero_accumulators(sums, counts);
        accumulate_clusters(points, assignments, sums, counts);
        update_centroids(centroids, sums, counts);
        shift_cell[0] = centroid_shift(previous, centroids);
    }
}

int enclave_kmeans(double *points, double *result) {
    double centroids[2];
    int assignments[10];
    double sums[2];
    double counts[2];
    double shift_cell[1];
    /* inject: prologue */
    init_centroids(points, centroids);
    run_iterations(points, centroids, assignments, sums, counts, shift_cell);
    double inertia = compute_inertia(points, centroids, assignments);
    double balance = cluster_balance(counts);
    double inertia_low = cluster_inertia(points, centroids, assignments, 0);
    double inertia_high = cluster_inertia(points, centroids, assignments, 1);
    result[0] = smaller_of(centroids[0], centroids[1]);
    result[1] = larger_of(centroids[0], centroids[1]);
    result[2] = inertia;
    result[3] = balance;
    result[4] = inertia_low;
    result[5] = inertia_high;
    result[6] = shift_cell[0];
    /* inject: epilogue */
    return 0;
}
"#;

/// The enclave interface (the OCALLs exist for the injected variants; the
/// clean build never calls them).
pub const EDL: &str = r#"
enclave {
    trusted {
        public int enclave_kmeans([in, count=10] double *points,
                                  [out, count=7] double *result);
    };
    untrusted {
        void ocall_progress(int step);
        void ocall_debug(int value);
    };
};
"#;

/// The corpus entry for Table V.
pub fn module() -> Module {
    Module {
        name: "Kmeans",
        source: SOURCE,
        edl: EDL,
        entry: "enclave_kmeans",
        expected_violations: 0,
    }
}

/// The call [`entry_branching`] writes out inside `enclave_kmeans`.
const ITERATIONS_CALL: &str =
    "    run_iterations(points, centroids, assignments, sums, counts, shift_cell);\n";

/// `run_iterations` with `assign_points` and `nearest_centroid` inlined by
/// hand, so the secret branch `d1 < d0` sits in the entry function.
const ITERATIONS_INLINE: &str = r#"    double previous[2];
    int iter = 0;
    shift_cell[0] = 0.0;
    for (iter = 0; iter < 3; iter++) {
        copy_centroids(centroids, previous);
        int i = 0;
        for (i = 0; i < 10; i++) {
            double value = point_at(points, i);
            double d0 = squared_distance(value, centroids[0]);
            double d1 = squared_distance(value, centroids[1]);
            if (d1 < d0) {
                assignments[i] = 1;
            } else {
                assignments[i] = 0;
            }
        }
        zero_accumulators(sums, counts);
        accumulate_clusters(points, assignments, sums, counts);
        update_centroids(centroids, sums, counts);
        shift_cell[0] = centroid_shift(previous, centroids);
    }
"#;

static ENTRY_BRANCHING: LazyLock<String> =
    LazyLock::new(|| SOURCE.replacen(ITERATIONS_CALL, ITERATIONS_INLINE, 1));

/// The same clean algorithm with the iteration loop, the assignment loop
/// and the `d1 < d0` branch written inside `enclave_kmeans`. A branch of
/// the entry function is never merged at a call return, so this variant
/// still forks at every assignment: its 2³⁰ paths outrun every budget,
/// which makes it the slow, budget-cut fixture for tests of the service's
/// suspension, recovery and degraded exits.
pub fn entry_branching() -> Module {
    Module {
        name: "KmeansEntryBranching",
        source: ENTRY_BRANCHING.as_str(),
        edl: EDL,
        entry: "enclave_kmeans",
        expected_violations: 0,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn entry_branching_inlines_the_iterations() {
        let module = super::entry_branching();
        module.validate().expect("variant parses");
        assert!(!module.source.contains(super::ITERATIONS_CALL));
        assert!(module.source.contains("if (d1 < d0)"));
    }
}
