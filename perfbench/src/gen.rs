//! Workload inputs. Units come from `eco_benchgen` at `table1_units`'
//! own seeds, so the instances are the ones ROADMAP and EXPERIMENTS
//! measure. The workload seed varies the inputs without changing their
//! logic: it renames every internal net (work-preserving: the engine
//! sees the same AIG), draws the output check's patterns, and, for the
//! daemon stream, draws the revision sequence. NOTES.md explains why
//! the seed does not redraw the circuits.

use eco_aig::{Aig, AigLit, NodeId, NodePatch};
use eco_benchgen::{build_unit, render_unit, table1_units, SplitMix64, UnitFiles, UnitSpec};
use eco_core::json::escape_json;
use eco_core::{generate_weights, EcoProblem};
use eco_netlist::Netlist;
use std::collections::HashMap;
use std::io;
use std::path::Path;

/// The units the daemon stream revises: every multi-target unit except
/// unit20, whose multi-second cold solve would make the stream measure
/// one solve.
pub const STREAM_UNITS: [&str; 9] = [
    "unit5", "unit6", "unit9", "unit10", "unit11", "unit14", "unit16", "unit17", "unit19",
];

/// The seed's renaming of the `wire` nets declared in a Verilog text:
/// a permutation of the names among themselves, so the set of names and
/// the net order stay what they were and only which wire carries which
/// name changes. Seed 0 keeps the names `gen_suite` writes.
pub fn wire_map(seed: u64, verilog: &str) -> HashMap<String, String> {
    if seed == 0 {
        return HashMap::new();
    }
    let wires: Vec<&str> = verilog
        .lines()
        .filter_map(|l| l.trim().strip_prefix("wire "))
        .flat_map(|decl| decl.trim_end_matches(';').split(','))
        .map(str::trim)
        .filter(|w| !w.is_empty())
        .collect();
    let mut names = wires.clone();
    shuffle(&mut names, &mut SplitMix64::new(seed));
    wires
        .iter()
        .zip(names)
        .map(|(w, n)| (w.to_string(), n.to_string()))
        .collect()
}

/// Fisher-Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// Replaces every identifier of `text` found in `map`.
pub fn rename_idents(text: &str, map: &HashMap<String, String>) -> String {
    if map.is_empty() {
        return text.to_string();
    }
    let mut out = String::with_capacity(text.len() + text.len() / 4);
    let mut ident = String::new();
    let flush = |ident: &mut String, out: &mut String| {
        out.push_str(map.get(ident.as_str()).unwrap_or(ident));
        ident.clear();
    };
    for c in text.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            ident.push(c);
        } else {
            flush(&mut ident, &mut out);
            out.push(c);
        }
    }
    flush(&mut ident, &mut out);
    out
}

/// One unit's files with the workload seed's net names.
fn renamed_files(files: &UnitFiles, seed: u64) -> UnitFiles {
    let impl_map = wire_map(seed, &files.implementation);
    let spec_map = wire_map(seed, &files.specification);
    UnitFiles {
        implementation: rename_idents(&files.implementation, &impl_map),
        specification: rename_idents(&files.specification, &spec_map),
        weights: rename_idents(&files.weights, &impl_map),
        target_nets: files
            .target_nets
            .iter()
            .map(|t| impl_map.get(t).unwrap_or(t).clone())
            .collect(),
    }
}

/// Writes `dir/<unit>/{F.v,G.v,weights.txt}` for all 20 units.
pub fn write_units(dir: &Path, scale: f64, seed: u64) -> io::Result<()> {
    for spec in table1_units(scale) {
        let files = renamed_files(&render_unit(&spec, &build_unit(&spec)), seed);
        let unit_dir = dir.join(spec.name);
        std::fs::create_dir_all(&unit_dir)?;
        std::fs::write(unit_dir.join("F.v"), files.implementation)?;
        std::fs::write(unit_dir.join("G.v"), files.specification)?;
        std::fs::write(unit_dir.join("weights.txt"), files.weights)?;
    }
    Ok(())
}

/// Scale of the daemon stream's units.
pub const STREAM_SCALE: f64 = 0.04;

/// One unit of the daemon stream: a fixed implementation plus every
/// specification and weight table the stream sends for it.
pub struct StreamUnit {
    pub name: &'static str,
    /// The implementation, with its `// eco_target` directives.
    pub impl_text: String,
    /// `"impl":...,"targets":[...]` fragment of a request line.
    pub impl_field: String,
    /// Specification texts, by version.
    pub specs: Vec<String>,
    /// `"spec":"..."` fragments, by version.
    pub spec_fields: Vec<String>,
    /// Weight tables in the `weights.txt` format, by version.
    pub weights: Vec<String>,
    /// `"weights":{...}` fragments, by version.
    pub weight_fields: Vec<String>,
}

/// One request of the stream: a unit and the versions it asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StreamRequest {
    pub unit: usize,
    pub spec: usize,
    pub weights: usize,
}

/// The daemon workload's inputs.
pub struct Stream {
    pub units: Vec<StreamUnit>,
    pub requests: Vec<StreamRequest>,
}

impl Stream {
    /// Writes the request line for `r`, tagged with `id`, piece by
    /// piece (a request is up to ~100 KB; no copy is made).
    pub fn write_line(&self, w: &mut impl io::Write, r: StreamRequest, id: &str) -> io::Result<()> {
        let u = &self.units[r.unit];
        w.write_all(format!("{{\"id\":\"{id}\",").as_bytes())?;
        w.write_all(u.impl_field.as_bytes())?;
        w.write_all(b",")?;
        w.write_all(u.spec_fields[r.spec].as_bytes())?;
        w.write_all(b",")?;
        w.write_all(u.weight_fields[r.weights].as_bytes())?;
        w.write_all(b",\"default_weight\":100}\n")
    }
}

/// A random replacement function over 2–3 of the `eligible` signals
/// (those outside every target's fanout), drawn the way
/// `eco_benchgen::inject_eco` draws them.
fn replacement(eligible: &[NodeId], rng: &mut SplitMix64) -> NodePatch {
    let arity = 2 + rng.below(2);
    let mut support: Vec<AigLit> = Vec::new();
    while support.len() < arity {
        let s = eligible[rng.below(eligible.len())]
            .lit()
            .xor_complement(rng.flip());
        if !support.iter().any(|x| x.node() == s.node()) {
            support.push(s);
        }
    }
    let mut aig = Aig::new();
    let ins: Vec<AigLit> = support.iter().map(|_| aig.add_input()).collect();
    let mut acc = ins[0];
    for &i in &ins[1..] {
        acc = match rng.below(3) {
            0 => aig.and(acc, i),
            1 => aig.or(acc, i),
            _ => aig.xor(acc, i),
        };
    }
    if rng.flip() {
        acc = !acc;
    }
    aig.add_output(acc);
    NodePatch { aig, support }
}

/// Generator state of one stream unit.
struct UnitModel {
    spec: UnitSpec,
    problem: EcoProblem,
    eligible: Vec<NodeId>,
    /// Current replacement function per target.
    functions: Vec<NodePatch>,
    /// Net name of each non-constant implementation node.
    node_nets: Vec<(String, NodeId)>,
    impl_map: HashMap<String, String>,
}

impl UnitModel {
    fn new(name: &str, seed: u64) -> UnitModel {
        let spec = table1_units(STREAM_SCALE)
            .into_iter()
            .find(|u| u.name == name)
            .expect("stream units are table1 units");
        let problem = build_unit(&spec);
        let im = &problem.implementation;
        let tfo = im.tfo_mask(problem.targets.iter().copied(), &im.fanouts());
        let eligible: Vec<NodeId> = im
            .iter_nodes()
            .filter(|&id| id != NodeId::CONST0 && !tfo[id.index()])
            .collect();
        assert!(eligible.len() >= 3, "{name} has too few signals to revise");
        let files = render_unit(&spec, &problem);
        let netlist = Netlist::from_aig(spec.name, im);
        let conv = netlist.to_aig().expect("rendered netlist is valid");
        let node_nets = (0..netlist.num_nets())
            .filter(|&i| !conv.net_lits[i].is_const())
            .map(|i| {
                let id = eco_netlist::NetId::from_index(i);
                (netlist.net_name(id).to_string(), conv.net_lits[i].node())
            })
            .collect();
        let impl_map = wire_map(seed, &files.implementation);
        UnitModel {
            spec,
            problem,
            eligible,
            functions: Vec::new(),
            node_nets,
            impl_map,
        }
    }

    /// The implementation text and its request fragment.
    fn implementation(&self) -> (String, String) {
        let files = render_unit(&self.spec, &self.problem);
        let text = rename_idents(&files.implementation, &self.impl_map);
        let targets: Vec<String> = files
            .target_nets
            .iter()
            .map(|t| format!("\"{}\"", self.impl_map.get(t).unwrap_or(t)))
            .collect();
        let field = format!(
            "\"impl\":\"{}\",\"targets\":[{}]",
            escape_json(&text),
            targets.join(",")
        );
        (text, field)
    }

    fn spec_text(&self, seed: u64) -> String {
        let patches: HashMap<NodeId, NodePatch> = self
            .problem
            .targets
            .iter()
            .copied()
            .zip(self.functions.iter().cloned())
            .collect();
        let aig = self
            .problem
            .implementation
            .substitute(&patches)
            .expect("replacements avoid the targets' fanout");
        let text = format!(
            "// {} — revised specification\n{}",
            self.spec.name,
            Netlist::from_aig(self.spec.name, &aig).to_verilog()
        );
        rename_idents(&text, &wire_map(seed, &text))
    }

    /// A weight table as `weights.txt` text and as a request fragment.
    fn weights(&self, weights: &[u64]) -> (String, String) {
        let entries: Vec<(&String, u64)> = self
            .node_nets
            .iter()
            .map(|(net, node)| (self.impl_map.get(net).unwrap_or(net), weights[node.index()]))
            .collect();
        let text = entries.iter().map(|(n, w)| format!("{n} {w}\n")).collect();
        let json: Vec<String> = entries
            .iter()
            .map(|(n, w)| format!("\"{n}\":{w}"))
            .collect();
        (text, format!("\"weights\":{{{}}}", json.join(",")))
    }
}

/// Revisions each stream unit receives per pass.
pub const REVISIONS_PER_UNIT: usize = 100;

/// Draws the daemon stream. Each unit starts with one cold request and
/// then receives `REVISIONS_PER_UNIT` revisions, half spec revisions
/// that redraw one target's replacement function and half weight
/// revisions. What each revision contains is fixed per unit, so every
/// seed asks for the same distinct work; the seed draws the net names,
/// the order in which units are revised, which revisions are repeated
/// back-to-back, and which units' current revisions fill the stream
/// between revisions (about two requests in three are such repeats).
pub fn stream(seed: u64, num_requests: usize) -> Stream {
    let mut units: Vec<StreamUnit> = Vec::new();
    let mut revisions: Vec<Vec<StreamRequest>> = Vec::new();
    for (u, name) in STREAM_UNITS.iter().enumerate() {
        let mut m = UnitModel::new(name, seed);
        let mut rng = SplitMix64::new(m.spec.seed ^ 0x5742_EA11);
        m.functions = m
            .problem
            .targets
            .iter()
            .map(|_| replacement(&m.eligible, &mut rng))
            .collect();
        let spec = m.spec_text(seed);
        let (impl_text, impl_field) = m.implementation();
        let (weights, weight_field) = m.weights(&m.problem.weights);
        let mut su = StreamUnit {
            name: m.spec.name,
            impl_text,
            impl_field,
            spec_fields: vec![format!("\"spec\":\"{}\"", escape_json(&spec))],
            specs: vec![spec],
            weights: vec![weights],
            weight_fields: vec![weight_field],
        };
        let mut state = StreamRequest {
            unit: u,
            spec: 0,
            weights: 0,
        };
        let mut seq = Vec::with_capacity(REVISIONS_PER_UNIT);
        for _ in 0..REVISIONS_PER_UNIT {
            if rng.flip() {
                let t = rng.below(m.functions.len());
                m.functions[t] = replacement(&m.eligible, &mut rng);
                let spec = m.spec_text(seed);
                su.spec_fields
                    .push(format!("\"spec\":\"{}\"", escape_json(&spec)));
                su.specs.push(spec);
                state.spec = su.specs.len() - 1;
            } else {
                let weights =
                    generate_weights(&m.problem.implementation, m.spec.weights, rng.next_u64());
                let (text, field) = m.weights(&weights);
                su.weights.push(text);
                su.weight_fields.push(field);
                state.weights = su.weights.len() - 1;
            }
            seq.push(state);
        }
        units.push(su);
        revisions.push(seq);
    }

    // The seed orders the stream; every seed sends the same multiset of
    // requests: each unit's revisions, half of them duplicated
    // back-to-back, and repeats dealt evenly over the units.
    let mut rng = SplitMix64::new(seed ^ 0x5742_EA11);
    let mut slots: Vec<usize> = (0..units.len())
        .flat_map(|u| std::iter::repeat_n(u, REVISIONS_PER_UNIT))
        .collect();
    shuffle(&mut slots, &mut rng);
    let duplicated: Vec<Vec<usize>> = (0..units.len())
        .map(|_| {
            let mut d: Vec<usize> = (0..REVISIONS_PER_UNIT).map(|r| r % 2).collect();
            shuffle(&mut d, &mut rng);
            d
        })
        .collect();
    let mut current: Vec<StreamRequest> = (0..units.len())
        .map(|unit| StreamRequest {
            unit,
            spec: 0,
            weights: 0,
        })
        .collect();
    let mut requests = current.clone();
    let mut next = vec![0; units.len()];
    let mut deck: Vec<usize> = Vec::new();
    let per_slot = num_requests.saturating_sub(units.len()) as f64 / slots.len() as f64;
    for (i, &u) in slots.iter().enumerate() {
        current[u] = revisions[u][next[u]];
        requests.push(current[u]);
        // Back-to-back duplicate: with two requests in flight, the
        // same work is computed twice unless the caches coalesce.
        if duplicated[u][next[u]] == 1 {
            requests.push(current[u]);
        }
        next[u] += 1;
        let fill = units.len() + ((i + 1) as f64 * per_slot).round() as usize;
        while requests.len() < fill {
            if deck.is_empty() {
                deck = (0..units.len()).collect();
                shuffle(&mut deck, &mut rng);
            }
            let r = deck.pop().expect("refilled above");
            requests.push(current[r]);
        }
    }
    requests.truncate(num_requests);
    Stream { units, requests }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{trace, traced_options, Instance};
    use eco_core::SupportMethod;

    fn files(index: usize, seed: u64) -> UnitFiles {
        let spec = &table1_units(0.04)[index];
        renamed_files(&render_unit(spec, &build_unit(spec)), seed)
    }

    #[test]
    fn seed_zero_keeps_the_rendered_files() {
        let spec = &table1_units(0.04)[8];
        assert_eq!(files(8, 0), render_unit(spec, &build_unit(spec)));
    }

    #[test]
    fn renaming_changes_the_text_but_not_the_work() {
        let solve = |f: &UnitFiles| {
            let inst = Instance {
                name: "unit17".to_string(),
                impl_text: f.implementation.clone(),
                spec_text: f.specification.clone(),
                weights_text: f.weights.clone(),
            };
            let t = trace(
                &inst,
                &traced_options(SupportMethod::MinimizeAssumptions),
                true,
            )
            .expect("solves");
            (t.cost, t.gates, t.reported_calls)
        };
        let (plain, renamed) = (files(16, 0), files(16, 7));
        assert_ne!(plain.implementation, renamed.implementation);
        assert_eq!(solve(&plain), solve(&renamed));
    }

    #[test]
    fn every_seed_sends_the_same_distinct_requests_per_unit() {
        use std::collections::HashSet;
        let distinct = |s: &Stream| s.requests.iter().copied().collect::<HashSet<_>>();
        let per_unit = |s: &Stream| {
            let mut n = vec![0; STREAM_UNITS.len()];
            s.requests.iter().for_each(|r| n[r.unit] += 1);
            n
        };
        let (a, b) = (stream(1, 3000), stream(2, 3000));
        assert_eq!((a.requests.len(), b.requests.len()), (3000, 3000));
        assert_ne!(a.requests, b.requests);
        assert_eq!(distinct(&a), distinct(&b));
        assert_eq!(
            distinct(&a).len(),
            STREAM_UNITS.len() * (REVISIONS_PER_UNIT + 1)
        );
        for n in [per_unit(&a), per_unit(&b)] {
            assert!(
                n.iter().max().unwrap() - n.iter().min().unwrap() <= 1,
                "{n:?}"
            );
        }
    }
}
