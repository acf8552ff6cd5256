//! The daemon-side cache layers: parsed netlists keyed by the hash of
//! their Verilog text, and whole outcomes keyed by the full request
//! fingerprint. The engine-side layers (window / CNF / solved-target)
//! live in [`eco_core::EcoCache`]; the daemon shares one instance of
//! that across every request it serves.
//!
//! Outcome entries are stored only for clean runs — no governor trip —
//! so a result degraded by resource pressure is never replayed as if
//! it were the answer. An outcome hit returns the stored response
//! fields (byte-identical patched Verilog) without touching the
//! engine: zero SAT calls, visible in the per-request
//! [`RunMetrics`](eco_core::RunMetrics) as `sat_calls.total == 0` with
//! `cache.outcome_hits == 1`.
//!
//! The netlist layer is single-flight: concurrent requests carrying the
//! same Verilog text parse it once; the others wait for that parse and
//! count as hits.

use eco_core::{CacheStats, ContentHasher, EcoCache};
use eco_netlist::{AigConversion, Netlist, ParsedModule};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Domain tag for parsed-netlist keys.
const TAG_NETLIST: u64 = 0x4e_45_54; // "NET"
/// Domain tag for outcome keys.
const TAG_OUTCOME: u64 = 0x4f_55_54; // "OUT"

/// A parsed implementation or specification, shared across requests.
#[derive(Debug)]
pub(crate) struct ParsedDesign {
    /// The parsed module (netlist plus `// eco_target` directives).
    pub module: ParsedModule,
    /// The netlist-to-AIG conversion (net-to-literal map included).
    pub conversion: AigConversion,
}

impl ParsedDesign {
    pub(crate) fn netlist(&self) -> &Netlist {
        &self.module.netlist
    }
}

/// A stored clean outcome: everything needed to answer an identical
/// request again without running the engine.
#[derive(Clone, Debug)]
pub(crate) struct CachedOutcome {
    pub verified: bool,
    pub cost: u64,
    pub gates: u64,
    pub dispositions: Vec<String>,
    pub patched_verilog: String,
    pub num_targets: usize,
    pub jobs: usize,
}

/// One tick-stamped LRU map (same discipline as the engine-side
/// cache: a shared tick, eviction scans for the stalest entry).
struct Lru<T> {
    entries: HashMap<u128, (u64, T)>,
    tick: u64,
    evictions: u64,
}

impl<T: Clone> Lru<T> {
    fn new() -> Lru<T> {
        Lru {
            entries: HashMap::new(),
            tick: 0,
            evictions: 0,
        }
    }

    fn get(&mut self, key: u128) -> Option<T> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&key).map(|(stamp, value)| {
            *stamp = tick;
            value.clone()
        })
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn put(&mut self, key: u128, value: T, capacity: usize) {
        self.tick += 1;
        if self.entries.len() >= capacity && !self.entries.contains_key(&key) {
            if let Some(&stale) = self
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k)
            {
                self.entries.remove(&stale);
                self.evictions += 1;
            }
        }
        self.entries.insert(key, (self.tick, value));
    }
}

/// Locks `m`, recovering the data if a panicking holder poisoned it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Keys whose value is being computed right now, with a condvar that
/// wakes the waiters when one finishes.
#[derive(Default)]
struct InFlight {
    keys: Mutex<HashSet<u128>>,
    done: Condvar,
}

/// The right to compute one in-flight key. Dropping it — after the
/// value is stored, or when the computation fails or panics — releases
/// the key and wakes every waiter, which then looks in the cache again
/// (and computes the value itself if it is still missing).
struct Ticket<'a> {
    in_flight: &'a InFlight,
    key: u128,
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        lock(&self.in_flight.keys).remove(&self.key);
        self.in_flight.done.notify_all();
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    netlist_hits: u64,
    netlist_misses: u64,
    outcome_hits: u64,
    outcome_misses: u64,
    poison_hits: u64,
}

/// Aggregated daemon cache statistics: the daemon-side layers plus
/// the engine-side [`CacheStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct DaemonCacheStats {
    /// Parsed-netlist layer hits.
    pub netlist_hits: u64,
    /// Parsed-netlist layer misses.
    pub netlist_misses: u64,
    /// Outcome layer hits.
    pub outcome_hits: u64,
    /// Outcome layer misses.
    pub outcome_misses: u64,
    /// Quarantined request fingerprints currently held as poison
    /// pills (requests whose solve path panicked; identical retries
    /// are rejected fast instead of re-crashing a worker).
    pub poison_pills: u64,
    /// Fast rejections served from the poison-pill layer.
    pub poison_hits: u64,
    /// Entries evicted from the daemon-side layers.
    pub evictions: u64,
    /// Engine-side (window / CNF / solved-target) statistics.
    pub engine: CacheStats,
}

impl DaemonCacheStats {
    /// Serializes the statistics as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"netlist_hits\":{},\"netlist_misses\":{},\"outcome_hits\":{},\
             \"outcome_misses\":{},\"poison_pills\":{},\"poison_hits\":{},\
             \"evictions\":{},\"engine\":{{\
             \"window_hits\":{},\"window_misses\":{},\"cnf_hits\":{},\"cnf_misses\":{},\
             \"target_hits\":{},\"target_misses\":{},\"evictions\":{}}}}}",
            self.netlist_hits,
            self.netlist_misses,
            self.outcome_hits,
            self.outcome_misses,
            self.poison_pills,
            self.poison_hits,
            self.evictions,
            self.engine.window_hits,
            self.engine.window_misses,
            self.engine.cnf_hits,
            self.engine.cnf_misses,
            self.engine.target_hits,
            self.engine.target_misses,
            self.engine.evictions,
        )
    }
}

/// The daemon's cache: netlist and outcome layers plus the shared
/// engine-side [`EcoCache`]. Cheap to clone (all state is shared).
#[derive(Clone)]
pub struct DaemonCache {
    netlist: Arc<Mutex<Lru<Arc<ParsedDesign>>>>,
    /// Netlist keys being parsed (single-flight).
    parsing: Arc<InFlight>,
    outcome: Arc<Mutex<Lru<Arc<CachedOutcome>>>>,
    /// Quarantined request fingerprints → panic message. An entry
    /// means "this exact request crashed a worker"; retries are
    /// answered from here without touching the engine.
    poison: Arc<Mutex<Lru<Arc<String>>>>,
    counters: Arc<Mutex<Counters>>,
    engine: EcoCache,
    capacity: usize,
}

impl std::fmt::Debug for DaemonCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl DaemonCache {
    /// Creates a cache holding at most `capacity` entries per layer
    /// (clamped to at least one).
    pub fn new(capacity: usize) -> DaemonCache {
        let capacity = capacity.max(1);
        DaemonCache {
            netlist: Arc::new(Mutex::new(Lru::new())),
            parsing: Arc::default(),
            outcome: Arc::new(Mutex::new(Lru::new())),
            poison: Arc::new(Mutex::new(Lru::new())),
            counters: Arc::new(Mutex::new(Counters::default())),
            engine: EcoCache::new(capacity),
            capacity,
        }
    }

    /// The shared engine-side cache, for
    /// [`EcoEngine::with_cache`](eco_core::EcoEngine::with_cache).
    pub fn engine(&self) -> EcoCache {
        self.engine.clone()
    }

    /// Current statistics across all layers.
    pub fn stats(&self) -> DaemonCacheStats {
        let c = *lock(&self.counters);
        let evictions = {
            let n = lock(&self.netlist).evictions;
            let o = lock(&self.outcome).evictions;
            n + o
        };
        DaemonCacheStats {
            netlist_hits: c.netlist_hits,
            netlist_misses: c.netlist_misses,
            outcome_hits: c.outcome_hits,
            outcome_misses: c.outcome_misses,
            poison_pills: lock(&self.poison).len() as u64,
            poison_hits: c.poison_hits,
            evictions,
            engine: self.engine.stats(),
        }
    }

    /// Quarantines a request fingerprint after a worker panic: every
    /// later request with the same fingerprint is answered by
    /// [`DaemonCache::poisoned`] without touching the engine.
    pub(crate) fn poison(&self, key: u128, message: &str) {
        lock(&self.poison).put(key, Arc::new(message.to_string()), self.capacity);
    }

    /// The stored panic message when `key` is quarantined; counts a
    /// poison hit on match.
    pub(crate) fn poisoned(&self, key: u128) -> Option<Arc<String>> {
        let hit = lock(&self.poison).get(key);
        if hit.is_some() {
            lock(&self.counters).poison_hits += 1;
        }
        hit
    }

    /// Parses `text` through the netlist layer; the returned flag is
    /// `true` on a hit. A request that finds the same text being parsed
    /// waits for that parse and counts as a hit. A parse or conversion
    /// failure is reported (and never cached), so a later corrected
    /// request re-parses.
    pub(crate) fn parsed(&self, text: &str) -> Result<(Arc<ParsedDesign>, bool), String> {
        let key = netlist_key(text);
        let _ticket = loop {
            // Look up under the in-flight lock, so a parse cannot finish
            // between the miss and the claim.
            let mut parsing = lock(&self.parsing.keys);
            if let Some(design) = lock(&self.netlist).get(key) {
                drop(parsing);
                lock(&self.counters).netlist_hits += 1;
                return Ok((design, true));
            }
            if parsing.insert(key) {
                break Ticket {
                    in_flight: &self.parsing,
                    key,
                };
            }
            while parsing.contains(&key) {
                parsing = self
                    .parsing
                    .done
                    .wait(parsing)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        lock(&self.counters).netlist_misses += 1;
        let module = eco_netlist::parse_verilog(text).map_err(|e| e.to_string())?;
        let conversion = module.netlist.to_aig().map_err(|e| e.to_string())?;
        let design = Arc::new(ParsedDesign { module, conversion });
        lock(&self.netlist).put(key, design.clone(), self.capacity);
        Ok((design, false))
    }

    pub(crate) fn lookup_outcome(&self, key: u128) -> Option<Arc<CachedOutcome>> {
        let hit = lock(&self.outcome).get(key);
        let mut c = lock(&self.counters);
        match hit {
            Some(outcome) => {
                c.outcome_hits += 1;
                Some(outcome)
            }
            None => {
                c.outcome_misses += 1;
                None
            }
        }
    }

    pub(crate) fn store_outcome(&self, key: u128, outcome: CachedOutcome) {
        lock(&self.outcome).put(key, Arc::new(outcome), self.capacity);
    }
}

/// The netlist-layer key: a hash of the Verilog text.
fn netlist_key(text: &str) -> u128 {
    let mut h = ContentHasher::new(TAG_NETLIST);
    h.write_bytes(text.as_bytes());
    h.finish128()
}

/// The full-request fingerprint: netlist texts, targets, weights, and
/// every result-affecting option. Two requests share a key exactly
/// when they must produce byte-identical answers.
pub(crate) fn outcome_key(req: &crate::protocol::EcoRequest) -> u128 {
    let mut h = ContentHasher::new(TAG_OUTCOME);
    h.write_bytes(req.impl_verilog.as_bytes());
    h.write_bytes(req.spec_verilog.as_bytes());
    h.write(req.targets.len() as u64);
    for t in &req.targets {
        h.write_bytes(t.as_bytes());
    }
    let mut weights = req.weights.clone();
    weights.sort();
    h.write(weights.len() as u64);
    for (net, w) in &weights {
        h.write_bytes(net.as_bytes());
        h.write(*w);
    }
    h.write(req.default_weight);
    // Options are hashed field-by-field (a Debug rendering would also
    // capture observability-only fields). `trace_id` is deliberately
    // excluded: it names trace spans, never the answer.
    let opts = &req.options;
    let mut opt_u64 = |v: Option<u64>| match v {
        None => h.write(0),
        Some(x) => {
            h.write(1);
            h.write(x);
        }
    };
    opt_u64(opts.budget);
    opt_u64(opts.global_conflicts);
    opt_u64(opts.deadline_ms);
    opt_u64(opts.jobs.map(|j| j as u64));
    opt_u64(opts.hold_ms);
    opt_u64(opts.structural_fallback.map(u64::from));
    opt_u64(opts.sweep.map(u64::from));
    opt_u64(opts.classes.map(u64::from));
    match &opts.method {
        None => h.write(0),
        Some(m) => {
            h.write(1);
            h.write_bytes(m.as_bytes());
        }
    }
    h.write(u64::from(opts.inject_panic));
    h.finish128()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{EcoRequest, RequestOptions};

    fn request(spec: &str) -> EcoRequest {
        EcoRequest {
            id: "r".to_string(),
            impl_verilog: "impl".to_string(),
            spec_verilog: spec.to_string(),
            targets: vec!["t".to_string()],
            weights: vec![("a".to_string(), 1), ("b".to_string(), 2)],
            default_weight: 1,
            options: RequestOptions::default(),
        }
    }

    #[test]
    fn outcome_keys_ignore_id_and_weight_order() {
        let a = request("spec");
        let mut b = a.clone();
        b.id = "different-id".to_string();
        b.weights.reverse();
        assert_eq!(outcome_key(&a), outcome_key(&b));
        let mut c = a.clone();
        c.spec_verilog.push(' ');
        assert_ne!(outcome_key(&a), outcome_key(&c));
        let mut d = a.clone();
        d.options.budget = Some(9);
        assert_ne!(outcome_key(&a), outcome_key(&d));
    }

    #[test]
    fn outcome_keys_ignore_the_trace_id() {
        let a = request("spec");
        let mut b = a.clone();
        b.options.trace_id = Some("perfetto-lane-4".to_string());
        assert_eq!(
            outcome_key(&a),
            outcome_key(&b),
            "trace_id is observability-only and must not split the cache"
        );
        // Adjacent option fields must not alias each other's encoding.
        let mut c = a.clone();
        c.options.budget = Some(5);
        let mut d = a.clone();
        d.options.global_conflicts = Some(5);
        assert_ne!(outcome_key(&c), outcome_key(&d));
    }

    #[test]
    fn netlist_layer_hits_on_identical_text_and_reports_errors() {
        let cache = DaemonCache::new(4);
        let src = "module m(a, y);\ninput a;\noutput y;\nnot g0(y, a);\nendmodule\n";
        let (first, hit) = cache.parsed(src).expect("parses");
        assert!(!hit);
        let (second, hit) = cache.parsed(src).expect("parses");
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second));
        assert!(cache.parsed("not verilog").is_err());
        // The failure was not cached: it fails again (and counts a miss).
        assert!(cache.parsed("not verilog").is_err());
        let stats = cache.stats();
        assert_eq!(stats.netlist_hits, 1);
        assert_eq!(stats.netlist_misses, 3);
    }

    #[test]
    fn waiters_share_an_in_flight_parse() {
        let cache = DaemonCache::new(4);
        let src = "module m(a, y);\ninput a;\noutput y;\nnot g0(y, a);\nendmodule\n";
        // Stand in for a worker that is parsing `src` right now.
        let key = netlist_key(src);
        assert!(lock(&cache.parsing.keys).insert(key));
        let ticket = Ticket {
            in_flight: &cache.parsing,
            key,
        };
        let results: Vec<(Arc<ParsedDesign>, bool)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| cache.parsed(src).expect("parses")))
                .collect();
            // None of them can parse while the key is in flight; finish
            // the stand-in parse, then release the key.
            let (design, _) = DaemonCache::new(1).parsed(src).expect("parses");
            lock(&cache.netlist).put(key, design, cache.capacity);
            drop(ticket);
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(results.iter().all(|(_, hit)| *hit));
        assert!(results.iter().all(|(d, _)| Arc::ptr_eq(d, &results[0].0)));
        let stats = cache.stats();
        assert_eq!((stats.netlist_hits, stats.netlist_misses), (4, 0));
        // Failures wake their waiters, each of which then parses (and
        // fails) itself: nothing hangs and nothing is cached.
        let failures = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| cache.parsed("not verilog").is_err()))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap())
                .filter(|&failed| failed)
                .count()
        });
        assert_eq!(failures, 4);
        assert_eq!(cache.stats().netlist_misses, 4);
    }

    #[test]
    fn a_panicking_parse_releases_its_key() {
        let cache = DaemonCache::new(4);
        let key = 42;
        let ticket_holder = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    assert!(lock(&cache.parsing.keys).insert(key));
                    let _ticket = Ticket {
                        in_flight: &cache.parsing,
                        key,
                    };
                    panic!("parser crashed");
                })
                .join()
        });
        assert!(ticket_holder.is_err());
        assert!(lock(&cache.parsing.keys).is_empty(), "the drop guard ran");
        // The layer is still usable afterwards.
        let src = "module m(a, y);\ninput a;\noutput y;\nbuf g0(y, a);\nendmodule\n";
        assert!(!cache.parsed(src).expect("parses").1);
    }

    #[test]
    fn poison_pills_quarantine_fingerprints_and_count_hits() {
        let cache = DaemonCache::new(4);
        assert!(cache.poisoned(7).is_none());
        cache.poison(7, "injected solver panic");
        let pill = cache.poisoned(7).expect("quarantined");
        assert_eq!(pill.as_str(), "injected solver panic");
        assert!(cache.poisoned(8).is_none(), "other fingerprints unaffected");
        let stats = cache.stats();
        assert_eq!(stats.poison_pills, 1);
        assert_eq!(stats.poison_hits, 1);
    }

    #[test]
    fn outcome_layer_evicts_the_stalest_entry_at_capacity() {
        let cache = DaemonCache::new(2);
        let entry = |tag: &str| CachedOutcome {
            verified: true,
            cost: 0,
            gates: 0,
            dispositions: vec!["patched".to_string()],
            patched_verilog: tag.to_string(),
            num_targets: 1,
            jobs: 1,
        };
        cache.store_outcome(1, entry("one"));
        cache.store_outcome(2, entry("two"));
        assert!(cache.lookup_outcome(1).is_some()); // refresh key 1
        cache.store_outcome(3, entry("three")); // evicts key 2
        assert!(cache.lookup_outcome(2).is_none());
        assert!(cache.lookup_outcome(1).is_some());
        assert!(cache.lookup_outcome(3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }
}
