//! Table I: capabilities of sub-thread near-data approaches. The
//! qualitative rows are the paper's; the workload-coverage row is computed
//! by running the implemented offload policies over the 14 workloads.

use near_stream::ExecMode;
use nsc_bench::{finalize, Cli, prepare, system_for, Report, SweepTask};
use nsc_workloads::all;
use std::sync::Arc;

fn main() {
    let size = Cli::new("tab01_capabilities", "Table I: capabilities of sub-thread near-data approaches").parse().size;
    let cfg = system_for(size);
    let mut rep = Report::new("tab01_capabilities", size);
    rep.meta("table", "I");
    println!("# Table I: capabilities of sub-thread near-data approaches");
    println!("                      INST(Omni)  SINGLE(Livia)  Near-Stream");
    println!("Data level                  LLC         LLC/MC          LLC");
    println!("Prog. transparent           Yes             No          Yes");
    println!("Loop autonomous              No            Yes          Yes");
    // Workload coverage: a workload counts as covered if its
    // primary-pattern streams execute near data under the system.
    let modes = [ExecMode::Inst, ExecMode::Single, ExecMode::Ns];
    let preps: Vec<Arc<_>> = all(size).into_iter().map(|w| Arc::new(prepare(w))).collect();
    let n = preps.len();
    let mut tasks: Vec<SweepTask<bool>> = Vec::new();
    for p in &preps {
        for m in modes {
            let p = Arc::clone(p);
            let cfg = cfg.clone();
            tasks.push(Box::new(move || {
                let r = p.run_cached(m, &cfg);
                r.offloaded_elems * 5 >= r.stream_elems.max(1) // >=20% of stream work near data
            }));
        }
    }
    let mut cover = [0u32; 3];
    for (t, covered) in rep.sweep(tasks).into_iter().enumerate() {
        cover[t % modes.len()] += covered as u32;
    }
    for (i, m) in modes.iter().enumerate() {
        rep.stat(&format!("covered.{}", m.label()), cover[i] as f64);
    }
    rep.stat("workloads", n as f64);
    println!(
        "# workloads accel.     {:>8}/{n} {:>9}/{n} {:>9}/{n}   (paper: 10/14, 5/14*, 14/14)",
        cover[0], cover[1], cover[2]
    );
    println!("(*paper counts Livia's applicable set differently; see Table II)");
    finalize(rep);
}
