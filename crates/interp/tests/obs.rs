//! What one run reports: an `interp.run` span in the `exo-obs`
//! registry, and one trace entry per `@instr` call on the machine (the
//! trace is the only record of the calls). This file is its own test
//! process, so the global registry sees only these runs.

use exo_core::build::{read, ProcBuilder};
use exo_core::ir::{Expr, Stmt};
use exo_core::types::DataType;
use exo_interp::{ArgVal, Machine};
use exo_obs::Registry;

#[test]
fn run_reports_one_span_and_traces_its_instructions() {
    let mut ib = ProcBuilder::new("prefetch");
    let n = ib.size("n");
    ib.tensor("src", DataType::F32, vec![Expr::var(n)]);
    ib.instr("prefetch({src_data});");
    ib.stmt(Stmt::Pass);
    let instr = ib.finish();

    let mut b = ProcBuilder::new("main");
    let a = b.tensor("A", DataType::F32, vec![Expr::int(8)]);
    b.begin_for("i", Expr::int(0), Expr::int(5));
    b.call(&instr, vec![Expr::int(8), read(a, vec![])]);
    b.end_for();
    let p = b.finish();

    let registry = Registry::global();
    let runs = || {
        registry
            .traces()
            .iter()
            .filter(|t| t.name == "interp.run")
            .count()
    };
    let runs0 = runs();
    let mut m = Machine::new();
    let id = m.alloc_extern("A", DataType::F32, &[8], &[1.0; 8]);
    for _ in 0..2 {
        m.run(&p, &[ArgVal::Tensor(id)]).unwrap();
    }
    assert_eq!(m.trace().len(), 10);
    assert_eq!(runs() - runs0, 2);
}
