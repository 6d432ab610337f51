//! The extension the paper left as future work: TPC-D's update functions.
//!
//! UF1 inserts new orders (heap appends + b-tree index maintenance), UF2
//! deletes old ones (a tombstoning scan). The paper declined to trace them
//! because Postgres95 only implements relation-level locking; this example
//! runs each processor's refresh pair over disjoint key ranges and shows the
//! memory-system profile writes produce.
//!
//! ```text
//! cargo run --release --example update_workload
//! ```

use dss_workbench::core::{experiments, Workbench};
use dss_workbench::query::{Database, Datum, DbConfig, Session};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The harness runs the full experiment (build, UF1+UF2 on four
    // processors, simulate on the paper's baseline machine through the
    // workbench's sweep-point runner).
    println!("running UF1/UF2 on four processors at the paper scale...");
    let mut wb = Workbench::small();
    let runs = experiments::update_experiment(&mut wb, dss_workbench::tpcd::PAPER_SCALE);
    println!("{}", dss_workbench::core::report::render_ext_updates(&runs));

    // And the engine-level view: a single refresh pair, step by step.
    let mut db = Database::build(&DbConfig {
        scale: 0.002,
        nbuffers: 2048,
        ..DbConfig::default()
    });
    let mut session = Session::untraced(0);
    let generator = dss_workbench::tpcd::Generator::new(0.002, 42);

    let (orders, lineitems) = generator.uf1_rows(1, 3, 5_000_000);
    db.execute(
        &dss_workbench::query::insert_orders_sql(&orders),
        &mut session,
    )?;
    db.execute(
        &dss_workbench::query::insert_lineitems_sql(&lineitems),
        &mut session,
    )?;
    let count = db
        .run(
            "select count(*) from orders where o_orderkey >= 5000000",
            &mut session,
        )?
        .rows[0][0]
        .clone();
    println!("UF1 inserted {count} new orders (visible through the o_orderkey index)");
    assert_eq!(count, Datum::Int(3));

    for sql in dss_workbench::query::uf2_sql(5_000_000, 5_000_002) {
        let n = db
            .execute(&sql, &mut session)?
            .affected()
            .ok_or("UF2 statement reported no affected-row count")?;
        println!("UF2: `{}` removed {n} tuples", &sql[..40.min(sql.len())]);
    }
    Ok(())
}
