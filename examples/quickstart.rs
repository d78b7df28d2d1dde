//! Quickstart: the smallest end-to-end tour of the library.
//!
//! Builds a synthetic Internet, generates a scaled-down 4.5-year DDoS
//! attack population, runs all ten observatory series over it, and
//! prints what each vantage point believed it saw — the paper's core
//! phenomenon (the same ground truth, ten different stories).
//!
//! Run with: `cargo run --release --example quickstart`

use ddoscovery::{ObsId, StudyConfig, StudyRun};

fn main() {
    let started = std::time::Instant::now();
    let cfg = StudyConfig::quick();
    println!("Running a scaled-down 4.5-year study (seed {:#x}) ...", cfg.seed);
    let run = StudyRun::execute(&cfg);
    println!(
        "Generated {} ground-truth attacks in {:.1?}\n",
        run.attacks.len(),
        started.elapsed()
    );

    println!("{:16} {:>9} {:>10}  trend  first-year -> last-year", "observatory", "attacks", "targets");
    for id in ObsId::MAIN_TEN {
        let obs = run.observations(id);
        let tuples = run.target_tuples(id);
        let s = run.normalized_series(id);
        let early: f64 = s.present().take(26).map(|(_, v)| v).sum::<f64>() / 26.0;
        let late: f64 = s
            .present()
            .filter(|(w, _)| *w >= simcore::STUDY_WEEKS - 26)
            .map(|(_, v)| v)
            .sum::<f64>()
            / 26.0;
        println!(
            "{:16} {:>9} {:>10}    {}    {:.2}x -> {:.2}x of baseline",
            id.name(),
            obs.len(),
            tuples.len(),
            s.trend().symbol(),
            early,
            late,
        );
    }

    // The headline inconsistency of the paper, in one sentence each:
    let ucsd = run.observations(ObsId::Ucsd).len() as f64;
    let orion = run.observations(ObsId::Orion).len() as f64;
    println!(
        "\nThe UCSD telescope (24x larger) detected {:.1}x as many RSDoS attacks as ORION.",
        ucsd / orion.max(1.0)
    );
    let dp_up = [ObsId::Orion, ObsId::Ucsd, ObsId::NetscoutDp, ObsId::IxpDp]
        .iter()
        .filter(|&&id| run.normalized_series(id).trend() == analytics::Trend::Increasing)
        .count();
    println!(
        "{dp_up}/4 non-Akamai direct-path observatories saw an increasing trend; Akamai saw {}.",
        run.normalized_series(ObsId::AkamaiDp).trend().symbol()
    );
    println!(
        "Reflection-amplification trends at the honeypots: Hopscotch {}, AmpPot {}.",
        run.normalized_series(ObsId::Hopscotch).trend().symbol(),
        run.normalized_series(ObsId::AmpPot).trend().symbol()
    );
    println!(
        "\nNext: `cargo run --release -p ddoscovery --bin ddoscovery -- run` regenerates every table and figure."
    );
}
