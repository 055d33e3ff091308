#!/bin/sh
# Compare bench --json dumps against a checked-in baseline.
#
#   scripts/compare_bench.sh NEW.json [NEW2.json ...]
#
# Every dump is a bench --json array; the same bench name may appear in
# several dumps (CI runs each bench >= 5 times into separate files) and
# the comparison uses the per-name MEDIAN of all samples, so a single
# noisy run can neither flag nor hide a regression.
#
# Environment:
#   BASELINE        baseline file       (default BENCH_BASELINE.json)
#   TOLERANCE       warn threshold      (default 0.5  = +50 %)
#   GATE_TOLERANCE  failing threshold   (default 0.25 = +25 %)
#   GATE_PATTERN    benches the gate fails on (default sim_hot_loop,
#                   session_cost, explore_throughput, adequation_scaling,
#                   exec_networked_scaling and exec_bus_contention —
#                   the stable simulation kernels, the compiled
#                   co-simulation session every Monte-Carlo run and
#                   explored candidate pays for, the cold exploration
#                   pipeline, the adequation curve that guards the
#                   route-search cliff and the executive over a loaded
#                   bus, as a curve and as a point; everything else only warns,
#                   shared CI runners are too noisy for the rest.
#                   explore_throughput$ is anchored so the warm
#                   cache-replay variant, whose first run pays the lazy
#                   cache fill, stays warn-only)
#   GATE_MIN_RUNS   samples required for a gated verdict (default 5)
#
# Exit status: 1 when a GATE_PATTERN bench exceeds GATE_TOLERANCE with
# at least GATE_MIN_RUNS samples, or was not run at all; else 0.
set -eu

[ $# -ge 1 ] || { echo "usage: compare_bench.sh NEW.json [NEW2.json ...]" >&2; exit 2; }
baseline=${BASELINE:-BENCH_BASELINE.json}
tol=${TOLERANCE:-0.5}
gate_tol=${GATE_TOLERANCE:-0.25}
gate=${GATE_PATTERN:-"sim_hot_loop|session_cost|explore_throughput$|adequation_scaling|exec_networked_scaling|exec_bus_contention"}
min_runs=${GATE_MIN_RUNS:-5}

for f in "$@" "$baseline"; do
  [ -f "$f" ] || { echo "compare_bench: $f not found" >&2; exit 2; }
done

# Each dump is one {"name": ..., "time_ns": ...} object per line.
extract() {
  sed -n 's/.*"name": *"\([^"]*\)", *"time_ns": *\([0-9.eE+-]*\).*/\1 \2/p' "$@"
}

new_samples=/tmp/bench_new.$$
base_medians=/tmp/bench_base.$$
trap 'rm -f "$new_samples" "$base_medians"' EXIT
extract "$@" | sort > "$new_samples"
extract "$baseline" | sort > "$base_medians"

awk -v tol="$tol" -v gate_tol="$gate_tol" -v gate="$gate" -v min_runs="$min_runs" \
    -v base_file="$base_medians" '
  FILENAME == base_file { baseline[$1] = $2; next }
  { n[$1]++; sample[$1, n[$1]] = $2 }
  END {
    bad = 0
    for (name in baseline) if (!(name in n)) {
      if (name ~ gate) {
        printf "::error title=bench missing::gated bench %s was not run\n", name
        bad++
      } else
        printf "in baseline only (not run): %s\n", name
    }
    for (name in n) {
      # insertion-sort the samples, then take the median
      m = n[name]
      for (i = 1; i <= m; i++) v[i] = sample[name, i]
      for (i = 2; i <= m; i++) {
        x = v[i]
        for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
        v[j + 1] = x
      }
      med = (m % 2) ? v[(m + 1) / 2] : (v[m / 2] + v[m / 2 + 1]) / 2
      if (!(name in baseline)) {
        printf "%-30s median %12.1f ns over %d run(s)   (no baseline)\n", name, med, m
        continue
      }
      b = baseline[name]
      ratio = (b > 0) ? med / b : 0
      status = "ok"
      if (name ~ gate && med > b * (1 + gate_tol)) {
        if (m >= min_runs) { status = "REGRESSION (gated)"; bad++ }
        else status = sprintf("REGRESSION? (%d run(s), gate needs %d)", m, min_runs)
      } else if (med > b * (1 + tol))
        status = "REGRESSION"
      printf "%-30s baseline %12.1f ns   median %12.1f ns over %d run(s)   x%.2f   %s\n", \
             name, b, med, m, ratio, status
      if (status == "REGRESSION (gated)")
        printf "::error title=bench regression::%s median is %.2fx its baseline (%.0f ns vs %.0f ns over %d runs)\n", \
               name, ratio, med, b, m
      else if (index(status, "REGRESSION") == 1)
        printf "::warning title=bench regression::%s median is %.2fx its baseline (%.0f ns vs %.0f ns)\n", \
               name, ratio, med, b
    }
    if (bad) {
      printf "%d gated bench(es) beyond the %.0f%% failing threshold\n", bad, gate_tol * 100
      exit 1
    }
    printf "all benches within tolerance (gate %s at +%.0f%%, others warn at +%.0f%%)\n", \
           gate, gate_tol * 100, tol * 100
  }' "$base_medians" "$new_samples"
