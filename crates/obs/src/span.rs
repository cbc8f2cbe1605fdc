//! Hierarchical phase spans with a global, thread-safe registry.
//!
//! A [`Span`] is an RAII guard: creating one opens a phase, dropping it
//! records the elapsed wall-clock into the registry node identified by the
//! **name path** — the chain of span names from the root, e.g.
//! `estimate → compile → ur_automaton`. Node identity never involves the
//! thread: two threads inside the same logical phase accumulate into the
//! same node, so the resulting tree is identical at any worker count
//! (counts and structure exactly; nanosecond totals up to timing noise).
//!
//! Worker threads spawned by `pqe-par` do not inherit thread-locals, so
//! the pool captures [`current_context`] before spawning and re-enters it
//! with [`enter_context`] inside each worker — fan-out work is then
//! attributed to the phase that requested it. A worker that helps with
//! another worker's loop enters that loop's context with
//! [`join_context`], which also charges its time to the phases it
//! helped in.
//!
//! Profiling is **off by default**: `span()` then costs one relaxed
//! atomic load and returns an inert guard. Enable with [`set_enabled`].
//!
//! Totals are *summed across threads*: under parallel fan-out a child's
//! total can exceed its parent's wall-clock. That is the useful number
//! for cost attribution (it is CPU time spent in the phase); percentages
//! in [`render`] are relative to the root's total of the same kind.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Sentinel parent index for root spans.
const ROOT: usize = usize::MAX;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Mirror of the table's epoch, readable without the table lock.
static EPOCH: AtomicU64 = AtomicU64::new(1);

#[derive(Default)]
struct NodeStats {
    count: AtomicU64,
    total_ns: AtomicU64,
}

struct Node {
    name: &'static str,
    parent: usize,
    stats: Arc<NodeStats>,
}

#[derive(Default)]
struct Table {
    nodes: Vec<Node>,
    index: HashMap<(usize, &'static str), usize>,
    /// Bumped on [`reset`]; stale thread-local state from a previous
    /// epoch is treated as "no current span".
    epoch: u64,
}

static TABLE: OnceLock<Mutex<Table>> = OnceLock::new();

fn table() -> &'static Mutex<Table> {
    TABLE.get_or_init(|| Mutex::new(Table { epoch: 1, ..Table::default() }))
}

/// One-entry per-thread resolve cache. Span names are `&'static str`, so
/// pointer identity is a sound cache key.
struct CacheEntry {
    epoch: u64,
    parent: usize,
    name: *const u8,
    idx: usize,
    stats: Arc<NodeStats>,
}

thread_local! {
    /// `(epoch, node index)` of the span the current thread is inside.
    static CURRENT: Cell<(u64, usize)> = const { Cell::new((0, ROOT)) };
    static RESOLVE_CACHE: RefCell<Option<CacheEntry>> = const { RefCell::new(None) };
}

/// Turns span recording on or off globally. Off (the default) makes span
/// creation a no-op costing one relaxed atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `true` iff span recording is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Resolves (or creates) the child of `parent` named `name`.
fn resolve(epoch: u64, parent: usize, name: &'static str) -> (usize, Arc<NodeStats>) {
    let mut t = table().lock().expect("span table poisoned");
    if t.epoch != epoch {
        // A reset raced us; attach at the root of the current epoch.
        return resolve_locked(&mut t, ROOT, name);
    }
    resolve_locked(&mut t, parent, name)
}

fn resolve_locked(t: &mut Table, parent: usize, name: &'static str) -> (usize, Arc<NodeStats>) {
    if let Some(&idx) = t.index.get(&(parent, name)) {
        return (idx, Arc::clone(&t.nodes[idx].stats));
    }
    let idx = t.nodes.len();
    let stats = Arc::new(NodeStats::default());
    t.nodes.push(Node { name, parent, stats: Arc::clone(&stats) });
    t.index.insert((parent, name), idx);
    (idx, stats)
}

/// An open phase. Dropping it records elapsed time and restores the
/// previously-current span on this thread.
pub struct Span {
    /// `None` when profiling was disabled at creation (inert guard).
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    stats: Arc<NodeStats>,
    started: Instant,
    prev: (u64, usize),
}

/// Opens the phase `name` as a child of the current span (or as a root).
///
/// Must be held on the thread that created it (not `Send`): the guard
/// restores this thread's span context on drop.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { active: None };
    }
    let prev = CURRENT.with(Cell::get);
    let cur_epoch = EPOCH.load(Ordering::Relaxed);
    let parent = if prev.0 == cur_epoch { prev.1 } else { ROOT };
    // Fast path: same (epoch, parent, name) as the last resolve on this
    // thread — no lock, just an Arc clone out of the thread-local cache.
    let (idx, stats) = RESOLVE_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(e) = cache.as_ref() {
            if e.epoch == cur_epoch && e.parent == parent && e.name == name.as_ptr() {
                return (e.idx, Arc::clone(&e.stats));
            }
        }
        let (idx, stats) = resolve(cur_epoch, parent, name);
        *cache = Some(CacheEntry {
            epoch: cur_epoch,
            parent,
            name: name.as_ptr(),
            idx,
            stats: Arc::clone(&stats),
        });
        (idx, stats)
    });
    CURRENT.with(|c| c.set((cur_epoch, idx)));
    Span { active: Some(ActiveSpan { stats, started: Instant::now(), prev }) }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            let ns = a.started.elapsed().as_nanos() as u64;
            a.stats.count.fetch_add(1, Ordering::Relaxed);
            a.stats.total_ns.fetch_add(ns, Ordering::Relaxed);
            CURRENT.with(|c| c.set(a.prev));
        }
    }
}

/// A capture of the calling thread's span position, for handing to worker
/// threads (which do not inherit thread-locals).
#[derive(Clone, Copy, Debug)]
pub struct SpanContext {
    state: (u64, usize),
}

/// Captures the current thread's span context (cheap: one TLS read).
pub fn current_context() -> SpanContext {
    SpanContext { state: CURRENT.with(Cell::get) }
}

/// Makes `ctx` the current span context on this thread until the guard
/// drops. Used by `pqe-par` workers to attach to their spawner's span.
pub fn enter_context(ctx: SpanContext) -> ContextGuard {
    let prev = CURRENT.with(Cell::get);
    CURRENT.with(|c| c.set(ctx.state));
    ContextGuard { prev }
}

/// Restores the previous span context on drop.
pub struct ContextGuard {
    prev: (u64, usize),
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Makes `ctx` the current span context on this thread, like
/// [`enter_context`], for a thread that works inside spans another thread
/// holds open (a `pqe-par` helper). `base` is the context the helper
/// itself started in. When the guard drops, the time since this call is
/// charged to the node of `ctx` and to each of its ancestors below the
/// node of `base` — the phases the helper worked in, as if it had opened
/// them — without counting an entry, so counts stay per logical entry.
pub fn join_context(ctx: SpanContext, base: SpanContext) -> JoinGuard {
    let started = (enabled() && ctx.state.1 != ROOT).then(Instant::now);
    JoinGuard {
        _ctx: enter_context(ctx),
        started,
        joined: ctx.state,
        base: base.state,
    }
}

/// Restores the previous span context and charges the joined phases on
/// drop; see [`join_context`].
pub struct JoinGuard {
    _ctx: ContextGuard,
    /// When the join began, if profiling was on.
    started: Option<Instant>,
    joined: (u64, usize),
    base: (u64, usize),
}

impl Drop for JoinGuard {
    fn drop(&mut self) {
        let Some(started) = self.started else {
            return;
        };
        let ns = started.elapsed().as_nanos() as u64;
        let (epoch, node) = self.joined;
        // A drop must not panic: a poisoned table goes uncharged.
        let Ok(t) = table().lock() else {
            return;
        };
        if t.epoch != epoch {
            return;
        }
        let stop = if self.base.0 == epoch {
            self.base.1
        } else {
            ROOT
        };
        let mut idx = node;
        while idx != ROOT && idx != stop {
            let n = &t.nodes[idx];
            n.stats.total_ns.fetch_add(ns, Ordering::Relaxed);
            idx = n.parent;
        }
    }
}

/// Clears all recorded spans (the node table) and invalidates stale
/// thread-local references via an epoch bump. Call between runs, not
/// while spans are open (an open guard from the old epoch still records
/// into its — now unreachable — stats block, which is harmless).
pub fn reset() {
    let mut t = table().lock().expect("span table poisoned");
    t.nodes.clear();
    t.index.clear();
    t.epoch += 1;
    EPOCH.store(t.epoch, Ordering::Relaxed);
}

/// One node of a snapshot tree.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanNode {
    pub name: String,
    /// Completed entries into this phase.
    pub count: u64,
    /// Total time inside this phase, summed across threads.
    pub total_ns: u64,
    /// Children, sorted by name (deterministic across runs/threads).
    pub children: Vec<SpanNode>,
}

/// A snapshot of the span forest: root nodes sorted by name, children
/// sorted by name at every level. Counts and structure are invariant
/// under worker count; only `total_ns` carries timing noise.
pub fn snapshot() -> Vec<SpanNode> {
    let t = table().lock().expect("span table poisoned");
    let mut children_of: HashMap<usize, Vec<usize>> = HashMap::new();
    for (idx, node) in t.nodes.iter().enumerate() {
        children_of.entry(node.parent).or_default().push(idx);
    }
    fn build(t: &Table, children_of: &HashMap<usize, Vec<usize>>, idx: usize) -> SpanNode {
        let node = &t.nodes[idx];
        let mut children: Vec<SpanNode> = children_of
            .get(&idx)
            .map(|c| c.iter().map(|&k| build(t, children_of, k)).collect())
            .unwrap_or_default();
        children.sort_by(|a, b| a.name.cmp(&b.name));
        SpanNode {
            name: node.name.to_owned(),
            count: node.stats.count.load(Ordering::Relaxed),
            total_ns: node.stats.total_ns.load(Ordering::Relaxed),
            children,
        }
    }
    let mut roots: Vec<SpanNode> = children_of
        .get(&ROOT)
        .map(|c| c.iter().map(|&k| build(&t, &children_of, k)).collect())
        .unwrap_or_default();
    roots.sort_by(|a, b| a.name.cmp(&b.name));
    roots
}

fn fmt_duration(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders a snapshot as an indented table: per-phase entry count, total
/// time (summed across threads) and percentage of the root's total.
pub fn render(roots: &[SpanNode]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:<42} {:>8} {:>10} {:>7}", "phase", "count", "total", "%");
    fn walk(out: &mut String, node: &SpanNode, depth: usize, root_total: u64) {
        let pct = if root_total > 0 {
            100.0 * node.total_ns as f64 / root_total as f64
        } else {
            0.0
        };
        let label = format!("{}{}", "  ".repeat(depth), node.name);
        let _ = writeln!(
            out,
            "{:<42} {:>8} {:>10} {:>6.1}%",
            label,
            node.count,
            fmt_duration(node.total_ns),
            pct
        );
        for c in &node.children {
            walk(out, c, depth + 1, root_total);
        }
    }
    for root in roots {
        walk(&mut out, root, 0, root.total_ns.max(1));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialise tests that touch the global registry.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_are_inert() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        reset();
        {
            let _s = span("t_disabled_root");
            let _c = span("t_disabled_child");
        }
        assert!(snapshot().iter().all(|r| r.name != "t_disabled_root"));
    }

    #[test]
    fn nested_spans_build_a_path_keyed_tree() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        set_enabled(true);
        for _ in 0..3 {
            let _root = span("t_nest_root");
            for _ in 0..2 {
                let _child = span("t_nest_child");
                let _leaf = span("t_nest_leaf");
            }
        }
        set_enabled(false);
        let snap = snapshot();
        let root = snap.iter().find(|r| r.name == "t_nest_root").expect("root recorded");
        assert_eq!(root.count, 3);
        assert_eq!(root.children.len(), 1);
        let child = &root.children[0];
        assert_eq!((child.name.as_str(), child.count), ("t_nest_child", 6));
        assert_eq!(child.children.len(), 1);
        assert_eq!((child.children[0].name.as_str(), child.children[0].count), ("t_nest_leaf", 6));
    }

    #[test]
    fn context_adoption_attributes_to_spawner() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        set_enabled(true);
        {
            let _root = span("t_ctx_root");
            let ctx = current_context();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(move || {
                        let _g = enter_context(ctx);
                        let _w = span("t_ctx_work");
                    });
                }
            });
        }
        set_enabled(false);
        let snap = snapshot();
        let root = snap.iter().find(|r| r.name == "t_ctx_root").expect("root recorded");
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].name, "t_ctx_work");
        assert_eq!(root.children[0].count, 2);
    }

    #[test]
    fn join_context_charges_time_below_the_base_without_counting() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        set_enabled(true);
        {
            let _root = span("t_join_root");
            let base = current_context();
            let _rep = span("t_join_rep");
            let _loop = span("t_join_loop");
            let owner = current_context();
            std::thread::scope(|s| {
                s.spawn(move || {
                    let _g = enter_context(base);
                    let _j = join_context(owner, base);
                    let _w = span("t_join_work");
                    std::thread::sleep(std::time::Duration::from_millis(20));
                });
            });
        }
        set_enabled(false);
        let snap = snapshot();
        let root = snap
            .iter()
            .find(|r| r.name == "t_join_root")
            .expect("root recorded");
        let rep = &root.children[0];
        let lp = &rep.children[0];
        let work = &lp.children[0];
        assert_eq!(
            (rep.name.as_str(), lp.name.as_str(), work.name.as_str()),
            ("t_join_rep", "t_join_loop", "t_join_work")
        );
        // One logical entry each; the helper's work nests under the loop.
        assert_eq!((root.count, rep.count, lp.count, work.count), (1, 1, 1, 1));
        // The helper's 20 ms land in the loop and the rep on top of the
        // owner's own time, which includes waiting for the helper; the
        // base (root) gets the owner's time only.
        assert!(lp.total_ns >= 2 * 20_000_000 && rep.total_ns >= lp.total_ns);
        assert!(root.total_ns < rep.total_ns);
    }

    #[test]
    fn reset_clears_and_orphans_survive() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        set_enabled(true);
        let open = span("t_reset_open");
        reset(); // epoch bump while a guard is open
        drop(open); // records into the orphaned stats block: must not panic
        {
            let _s = span("t_reset_new");
        }
        set_enabled(false);
        let snap = snapshot();
        assert!(snap.iter().all(|r| r.name != "t_reset_open"));
        assert!(snap.iter().any(|r| r.name == "t_reset_new"));
    }

    #[test]
    fn render_has_header_and_rows() {
        let roots = vec![SpanNode {
            name: "estimate".into(),
            count: 1,
            total_ns: 2_000_000,
            children: vec![SpanNode {
                name: "compile".into(),
                count: 1,
                total_ns: 500_000,
                children: vec![],
            }],
        }];
        let text = render(&roots);
        assert!(text.contains("phase"));
        assert!(text.contains("estimate"));
        assert!(text.contains("  compile"));
        assert!(text.contains("100.0%"));
        assert!(text.contains("25.0%"));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(5), "5ns");
        assert_eq!(fmt_duration(1_500), "1.5µs");
        assert_eq!(fmt_duration(2_500_000), "2.50ms");
        assert_eq!(fmt_duration(3_200_000_000), "3.200s");
    }
}
