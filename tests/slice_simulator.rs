//! A communicator simulates its own induced slice, not its machine: the
//! slice keeps every link between the allocation's GPUs, their capacities,
//! switch ports and NICs, so every report is the one a machine-wide
//! simulator makes for the same program, bit for bit.
//!
//! The reference here is a [`Simulator`] over the whole machine. Each case
//! builds fresh isolated communicators over a random partial allocation and
//! compares what `run`, `run_traced`, `run_checked` and `run_streamed`
//! report against that simulator running the communicator's programs.

use blink_core::{CollectiveKind, Communicator};
use blink_sim::{check_collective, EngineScratch, RunReport, SimParams, Simulator};
use blink_topology::presets::{dgx1p, dgx1v, dgx2, multi_server, ServerKind};
use blink_topology::{GpuId, Topology};
use proptest::prelude::*;

/// Odd-sized, so chunks and shares do not divide evenly.
const BYTES: u64 = (8 << 20) + 3;

/// A fresh communicator over `alloc` on `machine`, on a private store.
fn fresh(machine: &Topology, alloc: &[GpuId]) -> Communicator {
    Communicator::builder(machine.clone())
        .allocation(alloc)
        .isolated_plans()
        .build()
        .unwrap()
}

/// A report's every field, floats bit for bit (`Debug` prints each float's
/// shortest round-trip form).
fn bits<T: std::fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}

/// Checks every run entry point of a communicator over `alloc` against a
/// machine-wide simulator.
fn check_slice_simulator(
    machine: &Topology,
    alloc: &[GpuId],
    kind: CollectiveKind,
) -> Result<(), String> {
    let reference = Simulator::new(machine.clone(), SimParams::default());
    let on_machine = |program| {
        reference
            .run_with_scratch(program, &mut EngineScratch::new())
            .map_err(|e| e.to_string())
    };

    // run_traced: the program's whole report, and what the call returned
    let mut traced = fresh(machine, alloc);
    let (report, program, spans) = traced.run_traced(kind, BYTES).map_err(|e| e.to_string())?;
    let want: RunReport = on_machine(&program)?;
    let slice = Simulator::new(traced.induced_topology().clone(), SimParams::default());
    let got = slice.run(&program).map_err(|e| e.to_string())?;
    if bits(&got) != bits(&want) {
        return Err(format!("slice report {got:?} != machine report {want:?}"));
    }
    if report.elapsed_us.to_bits() != want.total_us.to_bits()
        || bits(&spans) != bits(&want.op_spans)
    {
        return Err("run_traced differs from the machine-wide run".into());
    }

    // run: the total alone
    let run = fresh(machine, alloc)
        .run(kind, BYTES)
        .map_err(|e| e.to_string())?;
    if bits(&run) != bits(&report) {
        return Err(format!("run {run:?} != run_traced {report:?}"));
    }

    // run_checked: the oracle's verdict on the machine-wide schedule
    let (checked, verdict) = fresh(machine, alloc)
        .run_checked(kind, BYTES)
        .map_err(|e| e.to_string())?;
    let oracle = check_collective(kind.spec(), &program, &want.op_spans, alloc, BYTES);
    if bits(&checked) != bits(&report) || verdict.to_string() != oracle.to_string() {
        return Err(format!(
            "run_checked {verdict} != machine-wide oracle {oracle}"
        ));
    }
    if !verdict.is_correct() {
        return Err(format!("not conformant: {verdict}"));
    }

    // run_streamed: every admitted program on one machine-wide session
    let requests = [(BYTES, 0.0), (BYTES / 3, 2.5), (1 << 20, 40.0)];
    let streamed = fresh(machine, alloc)
        .run_streamed(kind, &requests)
        .map_err(|e| e.to_string())?;
    let mut session = reference.session();
    for g in &streamed.groups {
        session.admit(g.program.clone(), g.issue_us);
    }
    let want = session.run().map_err(|e| e.to_string())?;
    let ready = requests.iter().map(|r| r.1).fold(0.0f64, f64::max);
    if streamed.finish_us.to_bits() != want.total_us.max(ready).to_bits() {
        return Err("run_streamed's finish differs from the machine-wide session".into());
    }
    for (g, span) in streamed.groups.iter().zip(&want.programs) {
        if g.end_us.to_bits() != span.end_us.to_bits() || bits(&g.op_spans) != bits(&span.op_spans)
        {
            return Err("a streamed program's spans differ from the machine-wide session".into());
        }
    }
    Ok(())
}

/// The GPUs of `set` (indices into `machine`'s GPU list), rotated by `turn`
/// so the allocation need not start at its smallest id.
fn allocation(set: &[usize], turn: usize) -> Vec<GpuId> {
    let mut alloc: Vec<GpuId> = set.iter().map(|&i| GpuId(i)).collect();
    alloc.rotate_left(turn % set.len());
    alloc
}

/// A rooted or rootless kind, picked by `pick`, rooted at the allocation's
/// `pick`-th GPU.
fn single_server_kind(alloc: &[GpuId], pick: usize) -> CollectiveKind {
    let root = alloc[pick % alloc.len()];
    match pick % 4 {
        0 => CollectiveKind::AllReduce,
        1 => CollectiveKind::Broadcast { root },
        2 => CollectiveKind::AllGather,
        _ => CollectiveKind::ReduceScatter,
    }
}

/// A partial slice of an 8-GPU server: 1 to 7 of its local GPUs.
fn partial_slice() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::btree_set(0usize..8, 1..=7).prop_map(|set| set.into_iter().collect())
}

/// The global ids of `slices`' local GPUs, server after server.
fn placed(slices: &[Vec<usize>], gpus: usize) -> Vec<GpuId> {
    slices
        .iter()
        .enumerate()
        .flat_map(|(server, locals)| locals.iter().map(move |&l| GpuId(server * gpus + l)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dgx1v_slices_simulate_as_the_machine_does(
        set in proptest::collection::btree_set(0usize..8, 2..=7),
        turn in 0usize..8,
        pick in 0usize..8,
    ) {
        let alloc = allocation(&set.into_iter().collect::<Vec<_>>(), turn);
        let kind = single_server_kind(&alloc, pick);
        if let Err(e) = check_slice_simulator(&dgx1v(), &alloc, kind) {
            return Err(TestCaseError::fail(format!("{alloc:?} {kind:?}: {e}")));
        }
    }

    #[test]
    fn dgx1p_slices_simulate_as_the_machine_does(
        set in proptest::collection::btree_set(0usize..8, 2..=7),
        turn in 0usize..8,
        pick in 0usize..8,
    ) {
        let alloc = allocation(&set.into_iter().collect::<Vec<_>>(), turn);
        let kind = single_server_kind(&alloc, pick);
        if let Err(e) = check_slice_simulator(&dgx1p(), &alloc, kind) {
            return Err(TestCaseError::fail(format!("{alloc:?} {kind:?}: {e}")));
        }
    }

    #[test]
    fn dgx2_slices_simulate_as_the_machine_does(
        set in proptest::collection::btree_set(0usize..16, 2..=10),
        turn in 0usize..16,
        pick in 0usize..8,
    ) {
        let alloc = allocation(&set.into_iter().collect::<Vec<_>>(), turn);
        let kind = single_server_kind(&alloc, pick);
        if let Err(e) = check_slice_simulator(&dgx2(), &alloc, kind) {
            return Err(TestCaseError::fail(format!("{alloc:?} {kind:?}: {e}")));
        }
    }

    #[test]
    fn two_server_slices_simulate_as_the_machine_does(
        slices in (partial_slice(), partial_slice()),
    ) {
        let machine = multi_server(2, ServerKind::Dgx1V, 5.0);
        let alloc = placed(&[slices.0, slices.1], 8);
        if let Err(e) = check_slice_simulator(&machine, &alloc, CollectiveKind::AllReduce) {
            return Err(TestCaseError::fail(format!("{alloc:?}: {e}")));
        }
    }

    #[test]
    fn three_server_slices_simulate_as_the_machine_does(
        slices in (partial_slice(), partial_slice(), partial_slice()),
        dgx2_servers in any::<bool>(),
    ) {
        let (kind, gpus) = if dgx2_servers {
            (ServerKind::Dgx2, 16)
        } else {
            (ServerKind::Dgx1V, 8)
        };
        let machine = multi_server(3, kind, 12.5);
        // on DGX-2 servers, the slices sit among the first 8 of 16 GPUs
        let alloc = placed(&[slices.0, slices.1, slices.2], gpus);
        if let Err(e) = check_slice_simulator(&machine, &alloc, CollectiveKind::AllReduce) {
            return Err(TestCaseError::fail(format!("{alloc:?}: {e}")));
        }
    }
}
