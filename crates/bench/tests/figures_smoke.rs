//! Smoke tests of the figure/table renderers (the full grid is exercised
//! by the reproduce binary and the CI gates).

use pmacc_bench::figures;
use pmacc_bench::grid::Scale;
use pmacc_types::MachineConfig;

#[test]
fn tables_render() {
    let machine = MachineConfig::dac17();
    let t1 = figures::table1(&machine).to_markdown();
    assert!(t1.contains("TC data array"));
    assert!(t1.contains("STTRAM"));
    let t2 = figures::table2(&machine).to_markdown();
    assert!(t2.contains("64 MB"));
    assert!(t2.contains("65-ns read, 76-ns write"));
    assert!(t2.contains("CAM FIFO"));
}

#[test]
fn table3_measures_all_workloads() {
    let t3 = figures::table3(Scale::Quick, 1).to_markdown();
    for name in ["graph", "rbtree", "sps", "btree", "hashtable"] {
        assert!(t3.contains(name), "missing {name} row");
    }
}

#[test]
fn ablation_e_batched_row_is_the_grid_sp_cell() {
    // The batched fencing mode is the default SP instrumentation, so its
    // row must reproduce the grid's SP/sps cell normalized to Optimal.
    use pmacc::{RunConfig, RunReport};
    use pmacc_bench::grid::{run_cells, Cell};
    use pmacc_bench::pool::Options;
    use pmacc_bench::table::norm;
    use pmacc_types::SchemeKind;
    use pmacc_workloads::WorkloadKind;

    let (scale, seed) = (Scale::Quick, 42);
    let opts = Options {
        jobs: 2,
        progress: false,
    };
    let t = figures::ablation_sp_fencing(scale, seed, &opts).unwrap();
    let cells = [SchemeKind::Sp, SchemeKind::Optimal]
        .map(|scheme| {
            let machine = scale.machine().with_scheme(scheme);
            Cell::uniform(scheme.to_string(), machine, WorkloadKind::Sps, scale.params(seed))
        })
        .to_vec();
    let reports = run_cells(cells, &RunConfig::default(), &opts).unwrap();
    let (sp, opt) = (&reports[0], &reports[1]);
    let ratio = |m: fn(&RunReport) -> f64| norm(m(sp) / m(opt));
    let writes = |r: &RunReport| r.nvm_write_traffic() as f64;
    assert_eq!(t.rows[0][0], "batched (Fig. 3a, default)");
    assert_eq!(
        t.rows[0][1..],
        [
            ratio(RunReport::ipc),
            ratio(RunReport::throughput),
            ratio(writes),
        ]
    );
}
