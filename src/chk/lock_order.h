// dcfs::chk — the declared global lock order (the static half of what the
// runtime lockdep graph observes).
//
// Every production lock class (the "subsystem.resource" names passed to
// chk::Mutex / chk::SharedMutex constructors) is listed once in
// DCFS_LOCK_CLASSES, and every *intended* may-nest pair once in
// DCFS_LOCK_ORDER_EDGES: an edge (A, B) means a thread holding A may
// acquire B.  Nesting is allowed along the transitive closure of these
// edges and nowhere else.
//
// The layering the edges encode:
//
//   application state   kvstore.table, server.block_store
//        |                   (may log / count while locked)
//        v
//   infrastructure      par.pool -> par.batch -> par.batch_error
//        |
//        v
//   observability       obs.tracer, obs.metrics_registry, obs.logger
//                       (leaves: never acquire anything below them)
//
// Three consumers keep declaration and reality in agreement:
//
//   * tools/lock_order.json — the machine-readable manifest.  chk_test
//     asserts lock_order_json() matches it, so editing one without the
//     other fails the build's test run.
//   * tools/lockdep_check.py — asserts every edge in a runtime
//     lockdep_dot() export is covered by the closure of the declared
//     edges (CI runs it over the DOT emitted by lock_order_test).
//   * lock_order_acyclic()/lock_order_allows() — in-process checks used
//     by the tests directly.
//
// Adding a mutex: pick a class name, add it to DCFS_LOCK_CLASSES, add the
// edges for every lock you intend to hold across its acquisition (and
// that it may be held across), regenerate tools/lock_order.json (the
// chk_test failure message prints the expected text), and keep the pair
// list acyclic — lock_order_test fails otherwise.  Per-member
// DCFS_ACQUIRED_BEFORE/AFTER annotations (annotations.h) may additionally
// pin local pairs inside one class for clang's static analysis.
//
// Test-only classes (prefix "test.", e.g. the deliberate cycles chk_test
// builds) are exempt everywhere: checkers skip nodes and edges whose
// class starts with lock_order_ignore_prefix().
#pragma once

#include <string>
#include <string_view>

namespace dcfs::chk {

// X(name) per production lock class.
#define DCFS_LOCK_CLASSES(X) \
  X("kvstore.table")         \
  X("server.block_store")    \
  X("par.pool")              \
  X("par.batch")             \
  X("par.batch_error")       \
  X("obs.tracer")            \
  X("obs.metrics_registry")  \
  X("obs.logger")

// X(before, after): holding `before`, a thread may acquire `after`.
#define DCFS_LOCK_ORDER_EDGES(X)              \
  X("kvstore.table", "obs.tracer")            \
  X("kvstore.table", "obs.metrics_registry")  \
  X("kvstore.table", "obs.logger")            \
  X("server.block_store", "obs.tracer")       \
  X("server.block_store", "obs.metrics_registry") \
  X("server.block_store", "obs.logger")       \
  X("par.pool", "par.batch")                  \
  X("par.batch", "par.batch_error")           \
  X("par.batch_error", "obs.tracer")          \
  X("par.batch_error", "obs.metrics_registry") \
  X("par.batch_error", "obs.logger")

/// One declared may-nest pair.
struct LockOrderEdge {
  const char* before;
  const char* after;
};

/// Lock classes whose name starts with this prefix are test fixtures and
/// exempt from manifest coverage (chk_test builds deliberate cycles).
[[nodiscard]] constexpr std::string_view lock_order_ignore_prefix() {
  return "test.";
}

/// The declared classes / edges, in declaration order.
[[nodiscard]] const char* const* lock_order_classes(std::size_t& count);
[[nodiscard]] const LockOrderEdge* lock_order_edges(std::size_t& count);

/// True when the declared edge set has no cycle (a cyclic declaration
/// would make every runtime order "covered" along the cycle — useless).
[[nodiscard]] bool lock_order_acyclic();

/// True when `before` may be held while acquiring `after`: the pair is in
/// the transitive closure of the declared edges, or either class carries
/// the test prefix.  Unknown classes are never allowed — new mutexes must
/// enter the manifest.
[[nodiscard]] bool lock_order_allows(std::string_view before,
                                     std::string_view after);

/// The manifest as JSON — byte content that tools/lock_order.json must
/// match (chk_test compares them token-for-token).
[[nodiscard]] std::string lock_order_json();

}  // namespace dcfs::chk
