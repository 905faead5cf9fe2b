//! Table 2 — users' perception of flickering: percentage of the
//! 20-subject panel perceiving each dimming resolution, under indirect
//! and direct viewing across the three ambient conditions. Also reprints
//! the §6.1 fth (Type-I) study that selected 250 Hz.

use smartvlc_bench::{results_dir, with_env_threads};
use smartvlc_sim::par_map;
use smartvlc_sim::perception::{StudyCondition, UserStudy, Viewing};
use smartvlc_sim::report::{markdown_table, write_csv};

fn main() {
    with_env_threads(run);
}

fn run() {
    let study = UserStudy::recruit(20, 2017);
    println!("Table 2 — users' perception of flickering (20 virtual subjects)\n");

    let print_panel = |viewing: Viewing, resolutions: &[f64], name: &str, csv: &str| {
        // Each resolution polls the whole panel independently — fan out.
        let rows = par_map(resolutions, |_, &r| {
            let mut row = vec![format!("{r}")];
            for c in StudyCondition::ALL {
                row.push(format!(
                    "{:.0}%",
                    study.percent_perceiving_step(viewing, c, r)
                ));
            }
            row
        });
        println!("({name})");
        println!("{}", markdown_table(&["Res.", "L1", "L2", "L3"], &rows));
        write_csv(results_dir().join(csv), &["res", "l1", "l2", "l3"], &rows).expect("write csv");
    };

    print_panel(
        Viewing::Indirect,
        &[0.04, 0.05, 0.06, 0.07, 0.08],
        "a: under indirect viewing",
        "table2a.csv",
    );
    print_panel(
        Viewing::Direct,
        &[0.003, 0.004, 0.005, 0.006, 0.007],
        "b: under direct viewing",
        "table2b.csv",
    );

    let tau_p = study
        .max_safe_resolution(&[0.003, 0.004, 0.005, 0.006, 0.007])
        .expect("some safe resolution");
    println!("=> largest universally-invisible resolution: {tau_p} (paper: tau_p = 0.003)\n");

    println!("Sec. 6.1 — Type-I study: % perceiving an ON/OFF toggle at f:");
    let freqs = [100.0, 150.0, 200.0, 250.0, 300.0];
    let rows: Vec<Vec<String>> = freqs
        .iter()
        .map(|&hz| {
            vec![
                format!("{hz:.0} Hz"),
                format!("{:.0}%", study.percent_perceiving_frequency(hz)),
            ]
        })
        .collect();
    println!("{}", markdown_table(&["frequency", "perceiving"], &rows));
    let fth = study
        .min_safe_frequency(&freqs)
        .expect("some safe frequency");
    println!("=> selected fth = {fth:.0} Hz (paper: 250 Hz, above 802.15.7's 200 Hz)");
    println!("=> Nmax = ftx/fth = {}", (125_000.0 / fth) as u64);
}
