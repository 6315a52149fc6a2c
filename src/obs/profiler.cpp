#include "obs/profiler.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <ostream>
#include <thread>
#include <utility>

#include "common/instrumented_mutex.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "obs/exposition.hpp"
#include "obs/trace.hpp"

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace rrf::obs {

namespace detail {

/// One call-tree node.  The owner thread writes site/parent and the
/// sibling links before publishing the node through the arena's count
/// (release store); counters are relaxed atomics so the snapshot thread
/// can read them without tearing.
struct ArenaNode {
  const char* site{nullptr};
  std::int32_t parent{-1};
  std::int32_t first_child{-1};   ///< owner-thread only
  std::int32_t next_sibling{-1};  ///< owner-thread only
  std::atomic<std::int64_t> total_ns{0};
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> bytes{0};
};

/// Per-thread call-tree arena: chunked so node pointers stay stable while
/// the tree grows (no reallocation under a concurrent snapshot reader).
struct ThreadArena {
  static constexpr std::int32_t kChunkSize = 256;
  static constexpr std::int32_t kMaxChunks = 16;  ///< 4096 sites per thread

  std::array<std::atomic<ArenaNode*>, kMaxChunks> chunks{};
  std::atomic<std::int32_t> count{0};
  std::int32_t first_root{-1};  ///< owner-thread only
  std::int32_t current{-1};     ///< owner-thread only: innermost open frame
  std::int32_t tid{0};
  std::string name;  ///< guarded by the registry mutex

  ~ThreadArena() {
    for (auto& chunk : chunks) {
      delete[] chunk.load(std::memory_order_relaxed);
    }
  }

  ArenaNode* node(std::int32_t idx) {
    return chunks[static_cast<std::size_t>(idx / kChunkSize)].load(
               std::memory_order_acquire) +
           idx % kChunkSize;
  }

  /// Finds or creates the child of the open frame named `site`, makes it
  /// the open frame and counts the call.  Returns -1 on arena overflow
  /// (the time then folds into the parent's self time).
  std::int32_t enter(const char* site) {
    std::int32_t* link =
        current < 0 ? &first_root : &node(current)->first_child;
    for (std::int32_t i = *link; i >= 0; i = node(i)->next_sibling) {
      ArenaNode* child = node(i);
      if (child->site == site || std::strcmp(child->site, site) == 0) {
        child->calls.fetch_add(1, std::memory_order_relaxed);
        current = i;
        return i;
      }
    }
    const std::int32_t idx = count.load(std::memory_order_relaxed);
    if (idx >= kChunkSize * kMaxChunks) return -1;
    const auto chunk = static_cast<std::size_t>(idx / kChunkSize);
    ArenaNode* base = chunks[chunk].load(std::memory_order_relaxed);
    if (base == nullptr) {
      base = new ArenaNode[kChunkSize];
      chunks[chunk].store(base, std::memory_order_release);
    }
    ArenaNode* fresh = base + idx % kChunkSize;
    fresh->site = site;
    fresh->parent = current;
    fresh->next_sibling = *link;
    *link = idx;
    fresh->calls.store(1, std::memory_order_relaxed);
    count.store(idx + 1, std::memory_order_release);
    current = idx;
    return idx;
  }
};

}  // namespace detail

namespace {

using detail::ArenaNode;
using detail::ThreadArena;

struct ContentionStats {
  std::uint64_t contended{0};
  std::int64_t blocked_ns{0};
};

struct PoolStats {
  std::atomic<std::uint64_t> tasks{0};
  std::atomic<std::int64_t> queue_wait_ns{0};
  std::atomic<std::int64_t> idle_ns{0};
  std::atomic<std::int64_t> exec_ns{0};
  std::atomic<std::uint64_t> parallel_fors{0};
  std::atomic<std::uint64_t> helper_tasks{0};
  std::atomic<std::uint64_t> max_queue_depth{0};

  void reset() {
    tasks.store(0, std::memory_order_relaxed);
    queue_wait_ns.store(0, std::memory_order_relaxed);
    idle_ns.store(0, std::memory_order_relaxed);
    exec_ns.store(0, std::memory_order_relaxed);
    parallel_fors.store(0, std::memory_order_relaxed);
    helper_tasks.store(0, std::memory_order_relaxed);
    max_queue_depth.store(0, std::memory_order_relaxed);
  }
};

/// Process-wide profiler state.  Heap-allocated and never destroyed so
/// thread_local arena handles can outlive any static destruction order.
struct Registry {
  // Both mutexes are hook-free AnnotatedMutex on purpose: the profiler
  // aggregates the contention hook's reports, so its own locks must
  // never fire that hook (record_mutex_contention would re-enter the
  // very lock it is reporting and deadlock on contention_mu).
  AnnotatedMutex mu;  ///< arenas vector + thread names
  std::vector<std::shared_ptr<ThreadArena>> arenas GUARDED_BY(mu);
  AnnotatedMutex contention_mu;  ///< contended-lock table (cold path only)
  std::map<std::string, ContentionStats> contention
      GUARDED_BY(contention_mu);
  PoolStats pool;
};

Registry& registry() {
  static Registry* instance = new Registry;
  return *instance;
}

/// Raw per-thread arena pointer for the hot path; nulled by the handle's
/// destructor so late allocations during thread teardown stay safe.
thread_local ThreadArena* tl_arena_ptr = nullptr;

struct ArenaHandle {
  std::shared_ptr<ThreadArena> arena;
  ~ArenaHandle() { tl_arena_ptr = nullptr; }
};
thread_local ArenaHandle tl_handle;

ThreadArena* tl_arena() {
  if (tl_arena_ptr == nullptr) {
    auto arena = std::make_shared<ThreadArena>();
    arena->tid = os_thread_id();
    {
      Registry& reg = registry();
      MutexLock lock(reg.mu);
      reg.arenas.push_back(arena);
    }
    tl_handle.arena = std::move(arena);
    tl_arena_ptr = tl_handle.arena.get();
  }
  return tl_arena_ptr;
}

/// Heap attribution for the innermost open frame; must not allocate.
void note_alloc(std::size_t size) noexcept {
  if (!profiling_enabled()) return;
  ThreadArena* arena = tl_arena_ptr;
  if (arena == nullptr || arena->current < 0) return;
  arena->node(arena->current)
      ->bytes.fetch_add(size, std::memory_order_relaxed);
}

void record_mutex_contention(const char* site, std::uint64_t blocked_ns) {
  Registry& reg = registry();
  MutexLock lock(reg.contention_mu);
  ContentionStats& stats = reg.contention[site];
  ++stats.contended;
  stats.blocked_ns += static_cast<std::int64_t>(blocked_ns);
}

/// ThreadPoolObserver feeding the pool telemetry block; installed when
/// profiling switches on, uninstalled (pool goes back to zero-overhead)
/// when it switches off.
class PoolProfiler final : public ThreadPoolObserver {
 public:
  void on_worker_start(std::size_t worker_index) override {
    name_pool_worker(worker_index);
  }

  void on_task_start(std::chrono::nanoseconds queue_wait,
                     std::chrono::nanoseconds idle,
                     std::size_t queue_depth) override {
    PoolStats& pool = registry().pool;
    pool.tasks.fetch_add(1, std::memory_order_relaxed);
    pool.queue_wait_ns.fetch_add(queue_wait.count(),
                                 std::memory_order_relaxed);
    pool.idle_ns.fetch_add(idle.count(), std::memory_order_relaxed);
    auto depth = static_cast<std::uint64_t>(queue_depth);
    std::uint64_t seen =
        pool.max_queue_depth.load(std::memory_order_relaxed);
    while (depth > seen && !pool.max_queue_depth.compare_exchange_weak(
                               seen, depth, std::memory_order_relaxed)) {
    }
  }

  void on_task_done(std::chrono::nanoseconds exec) override {
    registry().pool.exec_ns.fetch_add(exec.count(),
                                      std::memory_order_relaxed);
  }

  void on_parallel_for(std::size_t /*n*/, std::size_t /*chunks*/,
                       std::size_t helpers) override {
    PoolStats& pool = registry().pool;
    pool.parallel_fors.fetch_add(1, std::memory_order_relaxed);
    pool.helper_tasks.fetch_add(helpers, std::memory_order_relaxed);
  }
};

constexpr double kNsToSeconds = 1e-9;

/// Raw per-node copy read from one arena (synchronized via count).
struct RawNode {
  const char* site;
  std::int32_t parent;
  std::int64_t total_ns;
  std::uint64_t calls;
  std::uint64_t bytes;
};

/// Builds the sorted, pruned preorder snapshot of one arena.
std::vector<ProfileNode> snapshot_arena(ThreadArena& arena) {
  const std::int32_t count = arena.count.load(std::memory_order_acquire);
  std::vector<RawNode> raw(static_cast<std::size_t>(count));
  for (std::int32_t i = 0; i < count; ++i) {
    ArenaNode* n = arena.node(i);
    raw[static_cast<std::size_t>(i)] = {
        n->site, n->parent, n->total_ns.load(std::memory_order_relaxed),
        n->calls.load(std::memory_order_relaxed),
        n->bytes.load(std::memory_order_relaxed)};
  }

  std::vector<std::vector<std::int32_t>> children(raw.size());
  std::vector<std::int32_t> roots;
  for (std::int32_t i = 0; i < count; ++i) {
    const std::int32_t parent = raw[static_cast<std::size_t>(i)].parent;
    if (parent < 0) {
      roots.push_back(i);
    } else {
      children[static_cast<std::size_t>(parent)].push_back(i);
    }
  }
  auto by_site = [&](std::int32_t a, std::int32_t b) {
    return std::strcmp(raw[static_cast<std::size_t>(a)].site,
                       raw[static_cast<std::size_t>(b)].site) < 0;
  };
  std::sort(roots.begin(), roots.end(), by_site);
  for (auto& c : children) std::sort(c.begin(), c.end(), by_site);

  // A subtree is kept when anything in it ran since the last reset.
  std::vector<char> keep(raw.size(), 0);
  std::function<bool(std::int32_t)> mark = [&](std::int32_t i) -> bool {
    const RawNode& n = raw[static_cast<std::size_t>(i)];
    bool any = n.calls > 0 || n.total_ns > 0 || n.bytes > 0;
    for (const std::int32_t c : children[static_cast<std::size_t>(i)]) {
      any = mark(c) || any;
    }
    keep[static_cast<std::size_t>(i)] = any ? 1 : 0;
    return any;
  };
  for (const std::int32_t r : roots) mark(r);

  std::vector<ProfileNode> out;
  out.reserve(raw.size());
  std::function<void(std::int32_t, std::int32_t, std::int32_t)> emit =
      [&](std::int32_t i, std::int32_t parent_out, std::int32_t depth) {
        if (keep[static_cast<std::size_t>(i)] == 0) return;
        const RawNode& n = raw[static_cast<std::size_t>(i)];
        std::int64_t child_ns = 0;
        for (const std::int32_t c : children[static_cast<std::size_t>(i)]) {
          child_ns += raw[static_cast<std::size_t>(c)].total_ns;
        }
        ProfileNode node;
        node.site = n.site;
        node.parent = parent_out;
        node.depth = depth;
        node.total_seconds =
            static_cast<double>(n.total_ns) * kNsToSeconds;
        node.self_seconds =
            static_cast<double>(std::max<std::int64_t>(
                0, n.total_ns - child_ns)) *
            kNsToSeconds;
        node.calls = n.calls;
        node.bytes = n.bytes;
        const auto self_index = static_cast<std::int32_t>(out.size());
        out.push_back(std::move(node));
        for (const std::int32_t c : children[static_cast<std::size_t>(i)]) {
          emit(c, self_index, depth + 1);
        }
      };
  for (const std::int32_t r : roots) emit(r, -1, 0);
  return out;
}

/// Intermediate merge tree; std::map keeps children in site order so the
/// merged preorder is deterministic regardless of thread interleaving.
struct MergeNode {
  double total_seconds{0.0};
  double self_seconds{0.0};
  std::uint64_t calls{0};
  std::uint64_t bytes{0};
  std::map<std::string, std::size_t> children;
};

void merge_thread(const std::vector<ProfileNode>& nodes,
                  std::vector<MergeNode>* pool,
                  std::map<std::string, std::size_t>* roots) {
  std::vector<std::size_t> merged_of(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const ProfileNode& n = nodes[i];
    std::map<std::string, std::size_t>* level =
        n.parent < 0
            ? roots
            : &(*pool)[merged_of[static_cast<std::size_t>(n.parent)]]
                   .children;
    auto [it, inserted] = level->try_emplace(n.site, pool->size());
    if (inserted) pool->emplace_back();
    MergeNode& m = (*pool)[it->second];
    m.total_seconds += n.total_seconds;
    m.self_seconds += n.self_seconds;
    m.calls += n.calls;
    m.bytes += n.bytes;
    merged_of[i] = it->second;
  }
}

void flatten_merge(const std::vector<MergeNode>& pool,
                   const std::map<std::string, std::size_t>& level,
                   std::int32_t parent, std::int32_t depth,
                   std::vector<ProfileNode>* out) {
  for (const auto& [site, index] : level) {
    const MergeNode& m = pool[index];
    ProfileNode node;
    node.site = site;
    node.parent = parent;
    node.depth = depth;
    node.total_seconds = m.total_seconds;
    node.self_seconds = m.self_seconds;
    node.calls = m.calls;
    node.bytes = m.bytes;
    const auto self_index = static_cast<std::int32_t>(out->size());
    out->push_back(std::move(node));
    flatten_merge(pool, m.children, self_index, depth + 1, out);
  }
}

}  // namespace

std::int32_t os_thread_id() {
  thread_local const std::int32_t cached = [] {
#if defined(__linux__)
    return static_cast<std::int32_t>(::syscall(SYS_gettid));
#else
    const std::size_t h =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    return static_cast<std::int32_t>(h & 0x7fffffff);
#endif
  }();
  return cached;
}

void set_thread_name(std::string name) {
  ThreadArena* arena = tl_arena();
  // arena->name is guarded by registry().mu by convention (the arena
  // struct cannot name the registry in a GUARDED_BY attribute).
  MutexLock lock(registry().mu);
  arena->name = std::move(name);
}

void name_pool_worker(std::size_t index) {
  set_thread_name("pool/worker-" + std::to_string(index));
}

void set_profiling_enabled(bool on) {
  if constexpr (!kCompiledIn) return;
  detail::g_profiling_enabled.store(on, std::memory_order_relaxed);
  if (on) {
    // Immortal observer: uninstall only swaps the pointer, so a worker
    // mid-callback never races a destructor.
    static PoolProfiler* const pool_hook = new PoolProfiler;
    set_thread_pool_observer(pool_hook);
    set_mutex_contention_hook(&record_mutex_contention);
  } else {
    set_thread_pool_observer(nullptr);
    set_mutex_contention_hook(nullptr);
  }
}

void ProfileScope::enter(const char* site) {
  ThreadArena* arena = tl_arena();
  arena_ = arena;
  prev_ = arena->current;
  node_ = arena->enter(site);
  armed_ = true;
  start_ = std::chrono::steady_clock::now();
}

void ProfileScope::leave() {
  armed_ = false;
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count();
  if (node_ >= 0) {
    arena_->node(node_)->total_ns.fetch_add(ns, std::memory_order_relaxed);
  }
  arena_->current = prev_;
}

void ProfileScope::add_bytes(std::uint64_t n) {
  if (!profiling_enabled()) return;
  ThreadArena* arena = tl_arena_ptr;
  if (arena == nullptr || arena->current < 0) return;
  arena->node(arena->current)->bytes.fetch_add(n,
                                               std::memory_order_relaxed);
}

ProfileSnapshot profile_snapshot() {
  Registry& reg = registry();
  std::vector<std::pair<std::shared_ptr<ThreadArena>, std::string>> arenas;
  {
    MutexLock lock(reg.mu);
    arenas.reserve(reg.arenas.size());
    for (const auto& arena : reg.arenas) {
      arenas.emplace_back(arena, arena->name);
    }
  }

  ProfileSnapshot snap;
  for (auto& [arena, name] : arenas) {
    ThreadProfile thread;
    thread.tid = arena->tid;
    thread.name = name.empty()
                      ? "thread-" + std::to_string(arena->tid)
                      : name;
    thread.nodes = snapshot_arena(*arena);
    if (thread.nodes.empty()) continue;
    snap.threads.push_back(std::move(thread));
  }
  std::sort(snap.threads.begin(), snap.threads.end(),
            [](const ThreadProfile& a, const ThreadProfile& b) {
              return std::tie(a.name, a.tid) < std::tie(b.name, b.tid);
            });

  std::vector<MergeNode> pool;
  std::map<std::string, std::size_t> roots;
  for (const ThreadProfile& thread : snap.threads) {
    merge_thread(thread.nodes, &pool, &roots);
  }
  flatten_merge(pool, roots, -1, 0, &snap.merged);

  {
    MutexLock lock(reg.contention_mu);
    snap.contention.reserve(reg.contention.size());
    for (const auto& [site, stats] : reg.contention) {
      snap.contention.push_back(
          {site, stats.contended,
           static_cast<double>(stats.blocked_ns) * kNsToSeconds});
    }
  }

  const PoolStats& ps = reg.pool;
  snap.pool.tasks = ps.tasks.load(std::memory_order_relaxed);
  snap.pool.queue_wait_seconds =
      static_cast<double>(ps.queue_wait_ns.load(std::memory_order_relaxed)) *
      kNsToSeconds;
  snap.pool.idle_seconds =
      static_cast<double>(ps.idle_ns.load(std::memory_order_relaxed)) *
      kNsToSeconds;
  snap.pool.exec_seconds =
      static_cast<double>(ps.exec_ns.load(std::memory_order_relaxed)) *
      kNsToSeconds;
  snap.pool.parallel_fors =
      ps.parallel_fors.load(std::memory_order_relaxed);
  snap.pool.helper_tasks = ps.helper_tasks.load(std::memory_order_relaxed);
  snap.pool.max_queue_depth =
      ps.max_queue_depth.load(std::memory_order_relaxed);
  return snap;
}

void profile_reset() {
  Registry& reg = registry();
  {
    MutexLock lock(reg.mu);
    for (const auto& arena : reg.arenas) {
      const std::int32_t count =
          arena->count.load(std::memory_order_acquire);
      for (std::int32_t i = 0; i < count; ++i) {
        ArenaNode* n = arena->node(i);
        n->total_ns.store(0, std::memory_order_relaxed);
        n->calls.store(0, std::memory_order_relaxed);
        n->bytes.store(0, std::memory_order_relaxed);
      }
    }
  }
  {
    MutexLock lock(reg.contention_mu);
    reg.contention.clear();
  }
  reg.pool.reset();
}

void write_collapsed(std::ostream& os, const ProfileSnapshot& snapshot) {
  std::vector<std::string> paths(snapshot.merged.size());
  for (std::size_t i = 0; i < snapshot.merged.size(); ++i) {
    const ProfileNode& n = snapshot.merged[i];
    paths[i] = n.parent < 0
                   ? n.site
                   : paths[static_cast<std::size_t>(n.parent)] + ";" + n.site;
    const auto self_us = std::llround(n.self_seconds * 1e6);
    if (self_us > 0) os << paths[i] << ' ' << self_us << '\n';
  }
}

void write_chrome_profile(std::ostream& os,
                          const ProfileSnapshot& snapshot) {
  ChromeTraceWriter trace(os);
  for (const ThreadProfile& thread : snapshot.threads) {
    trace.thread_name(thread.tid, thread.name);
    // Synthetic timeline: children laid out sequentially inside their
    // parent's interval, roots back to back (totals, not wall layout).
    std::vector<double> start_us(thread.nodes.size(), 0.0);
    std::vector<double> cursor_us(thread.nodes.size(), 0.0);
    double root_cursor = 0.0;
    for (std::size_t i = 0; i < thread.nodes.size(); ++i) {
      const ProfileNode& n = thread.nodes[i];
      const double total_us = n.total_seconds * 1e6;
      if (n.parent < 0) {
        start_us[i] = root_cursor;
        root_cursor += total_us;
      } else {
        const auto p = static_cast<std::size_t>(n.parent);
        start_us[i] = cursor_us[p];
        cursor_us[p] += total_us;
      }
      cursor_us[i] = start_us[i];
      trace.slice(n.site, "profile", start_us[i], total_us, thread.tid,
                  json::Object{{"calls", n.calls},
                               {"self_us", n.self_seconds * 1e6},
                               {"bytes", n.bytes}});
    }
  }
  trace.finish();
}

void publish_profile_metrics(MetricsRegistry& registry_ref,
                             const ProfileSnapshot& snapshot) {
  struct SiteAgg {
    double self{0.0};
    double total{0.0};
    std::uint64_t calls{0};
    std::uint64_t bytes{0};
  };
  std::map<std::string, SiteAgg> by_site;
  for (const ProfileNode& n : snapshot.merged) {
    SiteAgg& agg = by_site[n.site];
    agg.self += n.self_seconds;
    agg.total += n.total_seconds;
    agg.calls += n.calls;
    agg.bytes += n.bytes;
  }
  for (const auto& [site, agg] : by_site) {
    registry_ref.gauge(labeled("profile.self_seconds", {{"site", site}}))
        .set(agg.self);
    registry_ref.gauge(labeled("profile.total_seconds", {{"site", site}}))
        .set(agg.total);
    registry_ref.gauge(labeled("profile.calls", {{"site", site}}))
        .set(static_cast<double>(agg.calls));
    registry_ref.gauge(labeled("profile.alloc_bytes", {{"site", site}}))
        .set(static_cast<double>(agg.bytes));
  }
  for (const MutexContention& c : snapshot.contention) {
    registry_ref
        .gauge(labeled("profile.mutex.contended", {{"site", c.site}}))
        .set(static_cast<double>(c.contended));
    registry_ref
        .gauge(labeled("profile.mutex.blocked_seconds", {{"site", c.site}}))
        .set(c.blocked_seconds);
  }
  const PoolProfile& pool = snapshot.pool;
  registry_ref.gauge("profile.pool.tasks")
      .set(static_cast<double>(pool.tasks));
  registry_ref.gauge("profile.pool.queue_wait_seconds")
      .set(pool.queue_wait_seconds);
  registry_ref.gauge("profile.pool.idle_seconds").set(pool.idle_seconds);
  registry_ref.gauge("profile.pool.exec_seconds").set(pool.exec_seconds);
  registry_ref.gauge("profile.pool.parallel_for_calls")
      .set(static_cast<double>(pool.parallel_fors));
  registry_ref.gauge("profile.pool.helper_tasks")
      .set(static_cast<double>(pool.helper_tasks));
  registry_ref.gauge("profile.pool.max_queue_depth")
      .set(static_cast<double>(pool.max_queue_depth));
}

std::vector<std::pair<std::int32_t, std::string>> profiled_thread_names() {
  Registry& reg = registry();
  MutexLock lock(reg.mu);
  std::vector<std::pair<std::int32_t, std::string>> out;
  out.reserve(reg.arenas.size());
  for (const auto& arena : reg.arenas) {
    if (!arena->name.empty()) out.emplace_back(arena->tid, arena->name);
  }
  return out;
}

}  // namespace rrf::obs

#if RRF_OBS_COMPILED_IN
// Heap attribution: guarded replacements of the global allocation
// functions.  With profiling off this adds one relaxed load per
// allocation; with it on, requested bytes land on the calling thread's
// innermost open ProfileScope.  Deallocation is a plain free — node byte
// counts are gross allocation volume, not live footprint.  Only the
// default-aligned family is replaced; over-aligned allocations keep the
// library implementation (a consistent new/delete pairing either way).
namespace {
void* profiled_alloc(std::size_t size) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) rrf::obs::note_alloc(size);
  return p;
}
}  // namespace

void* operator new(std::size_t size) {
  void* p = profiled_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = profiled_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return profiled_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return profiled_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#endif  // RRF_OBS_COMPILED_IN
