#include "chk/lockdep.h"

#if defined(DCFS_CHK_ENABLED)

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace dcfs::chk {
namespace {

/// One lock currently held by a thread.
struct HeldLock {
  std::uint32_t cls = 0;
  const void* instance = nullptr;
  Site site;
  bool shared = false;
};

/// One recorded lock-order edge: class `to` was requested while class
/// `from` was held.  The holder stack at recording time is kept verbatim
/// so a later cycle report can show *both* offending acquisition stacks.
struct EdgeInfo {
  Site from_site;  ///< where the held lock had been taken
  Site to_site;    ///< where the new lock was requested
  std::string holder_stack;
  std::uint64_t count = 0;  ///< times the ordered pair was observed
};

constexpr std::uint64_t edge_key(std::uint32_t from, std::uint32_t to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

// The per-thread state costs one vector scan per acquisition; the global
// graph below is only consulted the first time this thread sees an edge.
//
// Accessed through tls() because locks can be taken after this thread's
// TLS destructors ran (an atexit handler locking a chk::Mutex on the main
// thread).  The trivially-destructible `dead` flag outlives the state and
// turns such late acquisitions into no-ops instead of use-after-free.
struct TlsState {
  std::vector<HeldLock> held;
  std::unordered_set<std::uint64_t> edge_cache;
};

TlsState* tls() noexcept {
  thread_local bool dead = false;  // trivial: readable after TLS dtors
  struct Holder {
    TlsState state;
    bool* dead_flag;
    explicit Holder(bool* flag) : dead_flag(flag) {}
    ~Holder() { *dead_flag = true; }
  };
  thread_local Holder holder(&dead);
  return dead ? nullptr : &holder.state;
}

std::atomic<std::uint64_t> g_violations{0};

/// Per-class acquisition counters live outside the graph mutex so counting
/// stays off the hot path (one relaxed add per acquisition).  The bound is
/// generous: the project defines ~10 lock classes.
constexpr std::size_t kMaxClasses = 256;
std::array<std::atomic<std::uint64_t>, kMaxClasses> g_acquisitions{};

/// Global lock-class table + lock-order graph.  Intentionally leaked: lock
/// acquisitions can outlive every static destructor (e.g. a logger used
/// from an atexit handler), so the graph must never be torn down.
class Graph {
 public:
  static Graph& get() {
    // Leaked by design (see above).  dcfs-lint: allow(naked-new)
  static Graph* graph = new Graph();
    return *graph;
  }

  std::uint32_t intern(const char* name) {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = by_name_.find(name);
    if (it != by_name_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(classes_.size());
    if (id >= kMaxClasses) {
      std::fprintf(stderr, "lockdep: more than %zu lock classes\n",
                   kMaxClasses);
      std::abort();
    }
    classes_.emplace_back(name);
    by_name_.emplace(name, id);
    return id;
  }

  /// Records from→to.  Returns a non-empty cycle report when the new edge
  /// closes a cycle (the edge is still recorded, so the DOT dump shows it).
  std::string add_edge(std::uint32_t from, std::uint32_t to, EdgeInfo info) {
    const std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t key = edge_key(from, to);
    const auto it = edges_.find(key);
    if (it != edges_.end()) {
      ++it->second.count;
      return {};
    }
    // New edge: does a path to→...→from already exist?
    std::string report;
    std::vector<std::uint32_t> path;
    if (find_path(to, from, path)) {
      report = format_cycle(to, info, path);
    }
    info.count = 1;
    edges_.emplace(key, std::move(info));
    adjacency_[from].push_back(to);
    return report;
  }

  [[nodiscard]] std::string class_name(std::uint32_t cls) {
    const std::lock_guard<std::mutex> lock(mu_);
    return cls < classes_.size() ? classes_[cls] : "?";
  }

  [[nodiscard]] std::string dot() {
    const std::lock_guard<std::mutex> lock(mu_);
    std::string out = "digraph lockdep {\n  rankdir=LR;\n";
    for (std::size_t cls = 0; cls < classes_.size(); ++cls) {
      out += "  \"" + classes_[cls] + "\" [label=\"" + classes_[cls] + "\\n" +
             std::to_string(
                 g_acquisitions[cls].load(std::memory_order_relaxed)) +
             " acquisitions\"];\n";
    }
    for (const auto& [key, info] : edges_) {
      const auto from = static_cast<std::uint32_t>(key >> 32);
      const auto to = static_cast<std::uint32_t>(key & 0xffffffffu);
      out += "  \"" + classes_[from] + "\" -> \"" + classes_[to] +
             "\" [label=\"" + site_string(info.to_site) + " (" +
             std::to_string(info.count) + "x)\"];\n";
    }
    out += "}\n";
    return out;
  }

 private:
  Graph() = default;

  static std::string site_string(Site site) {
    std::string_view file = site.file;
    const std::size_t slash = file.rfind('/');
    if (slash != std::string_view::npos) file.remove_prefix(slash + 1);
    return std::string(file) + ":" + std::to_string(site.line);
  }

  /// DFS from `from` looking for `target`; fills `path` (excluding `from`,
  /// ending at `target`).  Caller holds mu_.
  bool find_path(std::uint32_t from, std::uint32_t target,
                 std::vector<std::uint32_t>& path) {
    if (from == target) return true;  // self edge already closed elsewhere
    std::unordered_set<std::uint32_t> visited;
    return dfs(from, target, visited, path);
  }

  bool dfs(std::uint32_t node, std::uint32_t target,
           std::unordered_set<std::uint32_t>& visited,
           std::vector<std::uint32_t>& path) {
    if (!visited.insert(node).second) return false;
    const auto it = adjacency_.find(node);
    if (it == adjacency_.end()) return false;
    for (const std::uint32_t next : it->second) {
      path.push_back(next);
      if (next == target || dfs(next, target, visited, path)) return true;
      path.pop_back();
    }
    return false;
  }

  /// Caller holds mu_.  `path` is the pre-existing chain to→...→from that
  /// the new edge from→to (`info`) closes into a cycle.
  std::string format_cycle(std::uint32_t to, const EdgeInfo& info,
                           const std::vector<std::uint32_t>& path) {
    std::string out = "lockdep: lock-order cycle detected\n";
    out += "  acquiring " + classes_[to] + " at " +
           site_string(info.to_site) + "\n";
    out += "  current acquisition stack:\n" + info.holder_stack;
    out += "  conflicting order recorded earlier:\n";
    std::uint32_t prev = to;
    for (const std::uint32_t node : path) {
      const auto it = edges_.find(edge_key(prev, node));
      out += "    " + classes_[prev] + " -> " + classes_[node];
      if (it != edges_.end()) {
        out += " at " + site_string(it->second.to_site) +
               ", acquisition stack:\n" + it->second.holder_stack;
      } else {
        out += "\n";
      }
      prev = node;
    }
    return out;
  }

  std::mutex mu_;
  std::vector<std::string> classes_;
  std::unordered_map<std::string, std::uint32_t> by_name_;
  std::unordered_map<std::uint64_t, EdgeInfo> edges_;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> adjacency_;
};

/// Handler registration; separate mutex so a handler can itself take chk
/// locks without re-entering the graph lock.
std::mutex& handler_mu() {
  static std::mutex mu;
  return mu;
}

ViolationHandler& handler_slot() {
  static ViolationHandler handler;
  return handler;
}

std::string format_held_stack(const std::vector<HeldLock>& held) {
  std::string out;
  if (held.empty()) return "    (no locks held)\n";
  for (std::size_t i = held.size(); i > 0; --i) {
    const HeldLock& lock = held[i - 1];
    std::string_view file = lock.site.file;
    const std::size_t slash = file.rfind('/');
    if (slash != std::string_view::npos) file.remove_prefix(slash + 1);
    out += "    #" + std::to_string(held.size() - i) + " " +
           Graph::get().class_name(lock.cls) +
           (lock.shared ? " (shared)" : "") + " at " + std::string(file) +
           ":" + std::to_string(lock.site.line) + "\n";
  }
  return out;
}

void report(Violation::Kind kind, std::string text) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
  ViolationHandler handler;
  {
    const std::lock_guard<std::mutex> lock(handler_mu());
    handler = handler_slot();
  }
  if (handler) {
    handler(Violation{kind, std::move(text)});
    return;
  }
  std::fprintf(stderr, "%s\n", text.c_str());
  std::abort();  // fail fast: a lock-order bug is a latent deadlock
}

}  // namespace

ViolationHandler set_violation_handler(ViolationHandler handler) {
  const std::lock_guard<std::mutex> lock(handler_mu());
  ViolationHandler previous = std::move(handler_slot());
  handler_slot() = std::move(handler);
  return previous;
}

std::uint64_t violation_count() noexcept {
  return g_violations.load(std::memory_order_relaxed);
}

std::string lockdep_dot() { return Graph::get().dot(); }

namespace detail {

std::uint32_t intern_class(const char* name) {
  return Graph::get().intern(name);
}

void check_acquire(std::uint32_t cls, const void* instance, Site site) {
  if (cls < kMaxClasses) {
    g_acquisitions[cls].fetch_add(1, std::memory_order_relaxed);
  }
  TlsState* state = tls();
  if (state == nullptr) return;  // thread is past TLS destruction
  for (const HeldLock& held : state->held) {
    if (held.instance == instance) {
      report(Violation::Kind::recursion,
             "lockdep: recursive acquisition of " +
                 Graph::get().class_name(cls) + " at " +
                 std::string(site.file) + ":" + std::to_string(site.line) +
                 "\n  current acquisition stack:\n" +
                 format_held_stack(state->held));
      return;
    }
  }
  for (const HeldLock& held : state->held) {
    if (held.cls == cls) {
      report(Violation::Kind::same_class,
             "lockdep: nested acquisition of two " +
                 Graph::get().class_name(cls) + " instances at " +
                 std::string(site.file) + ":" + std::to_string(site.line) +
                 "\n  current acquisition stack:\n" +
                 format_held_stack(state->held));
      return;
    }
  }
  for (const HeldLock& held : state->held) {
    const std::uint64_t key = edge_key(held.cls, cls);
    if (state->edge_cache.contains(key)) continue;
    EdgeInfo info;
    info.from_site = held.site;
    info.to_site = site;
    info.holder_stack = format_held_stack(state->held);
    std::string cycle = Graph::get().add_edge(held.cls, cls, std::move(info));
    state->edge_cache.insert(key);
    if (!cycle.empty()) report(Violation::Kind::cycle, std::move(cycle));
  }
}

void note_acquired(std::uint32_t cls, const void* instance, Site site,
                   bool shared) {
  if (TlsState* state = tls()) {
    state->held.push_back(HeldLock{cls, instance, site, shared});
  }
}

void note_released(const void* instance) noexcept {
  TlsState* state = tls();
  if (state == nullptr) return;
  for (auto it = state->held.rbegin(); it != state->held.rend(); ++it) {
    if (it->instance == instance) {
      state->held.erase(std::next(it).base());
      return;
    }
  }
}

}  // namespace detail
}  // namespace dcfs::chk

#endif  // DCFS_CHK_ENABLED
