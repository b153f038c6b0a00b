/**
 * @file
 * Source annotations driving the crnet-analyze static-analysis pass
 * (tools/crnet_analyze.py, registered as the `analyze` ctest).
 *
 * The runtime checks — the sched=active/sweep goldens, the jobs=N
 * bit-identity diffs, tests/test_alloc_steady.cc — only cover the
 * paths a test happens to execute. These annotations let the analyzer
 * enforce the same properties on *every* path, per translation unit
 * and across the whole call graph:
 *
 *   CRNET_HOT_PATH
 *       No heap allocation may be reachable from this function
 *       (rule `alloc`): no `new`, `malloc`-family calls, or
 *       allocating standard-container methods anywhere in its
 *       transitive callees. Applied to Network::tick and the
 *       router/NIC per-cycle functions.
 *
 *   CRNET_RESULT_AFFECTING
 *       Everything reachable from this function feeds a result the
 *       simulator reports (RunResult, campaign ledger summaries,
 *       trace files, audit/forensics reports). No iteration over
 *       std::unordered_map/std::unordered_set (rule `unordered-iter`)
 *       — hash-order is not part of the simulation's deterministic
 *       contract — and no address-dependent ordering.
 *
 *   CRNET_ALLOW(rule, reason)
 *       Scoped suppression: the named rule is not enforced inside the
 *       annotated function (or variable), and propagation of that
 *       rule stops at it. The reason string is mandatory and must be
 *       non-empty; the analyzer rejects bare suppressions. Rules:
 *       "alloc", "unordered-iter", "wallclock", "global-state".
 *
 * Two whole-tree rules need no root annotation:
 *
 *   `wallclock`     — any wall-clock/time source (time(),
 *                     gettimeofday(), std::chrono::*_clock) outside
 *                     the bench timing shim (src/sim/walltime.hh).
 *                     Simulation results must be functions of the
 *                     seed and the cycle counter alone.
 *   `global-state`  — mutable namespace-scope (or function-local
 *                     static) state in src/ outside registered
 *                     singletons. Hidden globals break run isolation
 *                     under the jobs=N engine and the upcoming
 *                     intra-run sharding.
 *
 * Under clang the macros expand to [[clang::annotate]] attributes;
 * under other compilers they compile to nothing. The analyzer reads
 * the macro tokens textually either way, and they cost nothing at
 * runtime.
 */

#ifndef CRNET_CORE_ANNOTATIONS_HH
#define CRNET_CORE_ANNOTATIONS_HH

#if defined(__clang__)
#define CRNET_HOT_PATH [[clang::annotate("crnet::hot_path")]]
#define CRNET_RESULT_AFFECTING [[clang::annotate("crnet::result_affecting")]]
#define CRNET_ALLOW(rule, reason) \
    [[clang::annotate("crnet::allow:" rule ":" reason)]]
#else
#define CRNET_HOT_PATH
#define CRNET_RESULT_AFFECTING
#define CRNET_ALLOW(rule, reason)
#endif

#endif // CRNET_CORE_ANNOTATIONS_HH
