//! The output check: a patched netlist must compute its specification.
//! Two independent paths judge each pair: a bit-parallel evaluator that
//! walks `Netlist::gates()` over random patterns, and the exact
//! `eco_core::check_equivalence`.

use eco_benchgen::SplitMix64;
use eco_core::{check_equivalence, CecResult};
use eco_netlist::{parse_verilog, GateKind, NetId, Netlist};

/// 64-pattern words simulated per input.
const WORDS: usize = 16;

/// Value words of every net, or an error for an undriven net or a
/// combinational cycle. `inputs[i]` feeds the `i`-th primary input.
pub fn simulate(netlist: &Netlist, inputs: &[Vec<u64>]) -> Result<Vec<Vec<u64>>, String> {
    let n = netlist.num_nets();
    let mut driver: Vec<Option<usize>> = vec![None; n];
    for (gi, g) in netlist.gates().iter().enumerate() {
        driver[g.output.index()] = Some(gi);
    }
    let mut values: Vec<Option<Vec<u64>>> = vec![None; n];
    for (&net, words) in netlist.inputs().iter().zip(inputs) {
        values[net.index()] = Some(words.clone());
    }
    let mut on_stack = vec![false; n];
    for &root in netlist.outputs() {
        let mut stack = vec![root.index()];
        while let Some(&net) = stack.last() {
            if values[net].is_some() {
                stack.pop();
                continue;
            }
            let Some(gi) = driver[net] else {
                let name = netlist.net_name(NetId::from_index(net));
                return Err(format!("net {name} is undriven"));
            };
            let gate = &netlist.gates()[gi];
            let pending: Vec<usize> = gate
                .inputs
                .iter()
                .map(|i| i.index())
                .filter(|&i| values[i].is_none())
                .collect();
            if pending.is_empty() {
                let ins: Vec<&Vec<u64>> = gate
                    .inputs
                    .iter()
                    .map(|i| values[i.index()].as_ref().expect("evaluated above"))
                    .collect();
                values[net] = Some(eval_gate(gate.kind, &ins));
                on_stack[net] = false;
                stack.pop();
            } else {
                if on_stack[net] {
                    return Err(format!("combinational cycle through {}", gate.name));
                }
                on_stack[net] = true;
                stack.extend(pending);
            }
        }
    }
    Ok(values.into_iter().map(Option::unwrap_or_default).collect())
}

fn eval_gate(kind: GateKind, ins: &[&Vec<u64>]) -> Vec<u64> {
    let fold = |init: u64, f: fn(u64, u64) -> u64| -> Vec<u64> {
        (0..WORDS)
            .map(|w| ins.iter().fold(init, |acc, v| f(acc, v[w])))
            .collect()
    };
    let not = |v: Vec<u64>| v.into_iter().map(|x| !x).collect();
    match kind {
        GateKind::And => fold(!0, |a, b| a & b),
        GateKind::Or => fold(0, |a, b| a | b),
        GateKind::Nand => not(fold(!0, |a, b| a & b)),
        GateKind::Nor => not(fold(0, |a, b| a | b)),
        GateKind::Xor => fold(0, |a, b| a ^ b),
        GateKind::Xnor => not(fold(0, |a, b| a ^ b)),
        GateKind::Buf => ins[0].clone(),
        GateKind::Not => not(ins[0].clone()),
        GateKind::Const0 => vec![0; WORDS],
        GateKind::Const1 => vec![!0; WORDS],
    }
}

fn port_names(netlist: &Netlist) -> (Vec<&str>, Vec<&str>) {
    let names = |ids: &[NetId]| ids.iter().map(|&i| netlist.net_name(i)).collect();
    (names(netlist.inputs()), names(netlist.outputs()))
}

/// The simulation path: `Some(reason)` when an output differs on one
/// of the seed's random patterns.
pub fn simulation_mismatch(patched: &Netlist, spec: &Netlist, seed: u64) -> Option<String> {
    let mut rng = SplitMix64::new(seed ^ 0xC4EC_0000);
    let inputs: Vec<Vec<u64>> = spec
        .inputs()
        .iter()
        .map(|_| (0..WORDS).map(|_| rng.next_u64()).collect())
        .collect();
    let (pv, sv) = match (simulate(patched, &inputs), simulate(spec, &inputs)) {
        (Ok(p), Ok(s)) => (p, s),
        (Err(e), _) | (_, Err(e)) => return Some(e),
    };
    patched
        .outputs()
        .iter()
        .zip(spec.outputs())
        .find(|(p, s)| pv[p.index()] != sv[s.index()])
        .map(|(p, _)| format!("output {} differs in simulation", patched.net_name(*p)))
}

/// The exact path: `Some(reason)` unless the two netlists are proven
/// equivalent.
pub fn cec_mismatch(patched: &Netlist, spec: &Netlist) -> Option<String> {
    let (a, b) = match (patched.to_aig(), spec.to_aig()) {
        (Ok(a), Ok(b)) => (a.aig, b.aig),
        (Err(e), _) | (_, Err(e)) => return Some(e.to_string()),
    };
    match check_equivalence(&a, &b, None) {
        CecResult::Equivalent => None,
        CecResult::Counterexample(_) => Some("exact check found a counterexample".to_string()),
        CecResult::Unknown => Some("exact check gave no verdict".to_string()),
    }
}

/// Checks one patched netlist text against its specification text.
pub fn check(patched: &str, spec: &str, seed: u64) -> Result<(), String> {
    let patched = parse_verilog(patched).map_err(|e| e.to_string())?.netlist;
    let spec = parse_verilog(spec).map_err(|e| e.to_string())?.netlist;
    if port_names(&patched) != port_names(&spec) {
        return Err("ports differ from the specification's".to_string());
    }
    if let Some(e) = simulation_mismatch(&patched, &spec, seed) {
        return Err(e);
    }
    cec_mismatch(&patched, &spec).map_or(Ok(()), Err)
}

/// `netlist` with the gate driving one seed-chosen output replaced by
/// its complement, so that output is wrong on every pattern.
pub fn corrupt_one_gate(netlist: &Netlist, seed: u64) -> Netlist {
    let drivers: Vec<usize> = netlist
        .outputs()
        .iter()
        .filter_map(|o| netlist.gates().iter().position(|g| g.output == *o))
        .collect();
    assert!(!drivers.is_empty(), "no output is driven by a gate");
    let victim = drivers[SplitMix64::new(seed).below(drivers.len())];
    let mut out = Netlist::new(netlist.name());
    for i in 0..netlist.num_nets() {
        out.add_net(netlist.net_name(NetId::from_index(i)));
    }
    for &i in netlist.inputs() {
        out.add_input(netlist.net_name(i));
    }
    for (gi, g) in netlist.gates().iter().enumerate() {
        let kind = if gi == victim {
            match g.kind {
                GateKind::And => GateKind::Nand,
                GateKind::Nand => GateKind::And,
                GateKind::Or => GateKind::Nor,
                GateKind::Nor => GateKind::Or,
                GateKind::Xor => GateKind::Xnor,
                GateKind::Xnor => GateKind::Xor,
                GateKind::Buf => GateKind::Not,
                GateKind::Not => GateKind::Buf,
                GateKind::Const0 => GateKind::Const1,
                GateKind::Const1 => GateKind::Const0,
            }
        } else {
            g.kind
        };
        out.add_gate(kind, g.name.clone(), g.output, g.inputs.clone());
    }
    for &o in netlist.outputs() {
        out.mark_output(o);
    }
    out
}

/// The check's self-test on a real pair: the patched netlist passes,
/// and a copy with one corrupted gate is rejected by each path alone.
pub fn self_test(patched: &str, spec: &str, seed: u64) -> Result<(), String> {
    check(patched, spec, seed).map_err(|e| format!("self-test pair fails: {e}"))?;
    let spec = parse_verilog(spec).map_err(|e| e.to_string())?.netlist;
    let bad = corrupt_one_gate(
        &parse_verilog(patched).map_err(|e| e.to_string())?.netlist,
        seed,
    );
    if simulation_mismatch(&bad, &spec, seed).is_none() {
        return Err("simulation accepted a corrupted gate".to_string());
    }
    if cec_mismatch(&bad, &spec).is_none() {
        return Err("exact check accepted a corrupted gate".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_benchgen::{build_unit, render_unit, table1_units};

    #[test]
    fn a_specification_passes_against_itself_and_a_corruption_fails() {
        for spec in table1_units(0.04).iter().take(6) {
            let files = render_unit(spec, &build_unit(spec));
            assert_eq!(check(&files.specification, &files.specification, 7), Ok(()));
            self_test(&files.specification, &files.specification, 7).expect(spec.name);
        }
    }

    #[test]
    fn the_unpatched_implementation_fails() {
        let spec = &table1_units(0.04)[4];
        let files = render_unit(spec, &build_unit(spec));
        assert!(check(&files.implementation, &files.specification, 1).is_err());
    }

    #[test]
    fn simulation_agrees_with_the_aig() {
        let spec = &table1_units(0.04)[8];
        let files = render_unit(spec, &build_unit(spec));
        let netlist = parse_verilog(&files.implementation).unwrap().netlist;
        let aig = netlist.to_aig().unwrap().aig;
        let mut rng = SplitMix64::new(3);
        let inputs: Vec<Vec<u64>> = netlist
            .inputs()
            .iter()
            .map(|_| (0..WORDS).map(|_| rng.next_u64()).collect())
            .collect();
        let values = simulate(&netlist, &inputs).unwrap();
        for w in 0..WORDS {
            let words: Vec<u64> = inputs.iter().map(|v| v[w]).collect();
            let expected = aig.simulate_outputs(&words);
            let got: Vec<u64> = netlist
                .outputs()
                .iter()
                .map(|o| values[o.index()][w])
                .collect();
            assert_eq!(got, expected);
        }
    }
}
