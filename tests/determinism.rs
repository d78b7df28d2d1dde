//! Reproducibility contract: the whole study is a pure function of the
//! seed, and observation order / concurrency never leaks into results.

use ddoscovery::{ObsId, StudyConfig, StudyRun};

fn tiny_cfg(seed: u64) -> StudyConfig {
    let mut cfg = StudyConfig::quick();
    cfg.seed = seed;
    // Shrink further: determinism doesn't need volume.
    cfg.gen.timeline.dp_base_per_week = 20.0;
    cfg.gen.timeline.ra_base_per_week = 30.0;
    cfg.gen.random_campaign_count = 2;
    // Bypass the cross-run stage cache: these tests assert that
    // *recomputation* is deterministic, which a cache hit (returning
    // the very same `Arc`s) would make vacuous.
    cfg.stage_cache = Some(0);
    cfg
}

#[test]
fn identical_seeds_identical_results() {
    let a = StudyRun::execute(&tiny_cfg(99));
    let b = StudyRun::execute(&tiny_cfg(99));
    assert_eq!(a.attacks.len(), b.attacks.len());
    for (x, y) in a.attacks.iter().zip(b.attacks.iter()) {
        assert_eq!(x, y);
    }
    for id in ObsId::MAIN_TEN {
        assert_eq!(
            a.observations(id),
            b.observations(id),
            "{} observations diverged",
            id.name()
        );
        // Bitwise comparison: masked weeks are NaN, and NaN != NaN.
        let av: Vec<u64> = a.weekly_series(id).values.iter().map(|v| v.to_bits()).collect();
        let bv: Vec<u64> = b.weekly_series(id).values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(av, bv, "{} weekly series diverged", id.name());
    }
    assert_eq!(a.netscout_baseline_tuples(), b.netscout_baseline_tuples());
}

#[test]
fn worker_count_never_changes_results() {
    // The execution-engine contract: a study executed on 1, 2, or N
    // workers is byte-identical — same attacks, same observation ids in
    // the same order for every one of the eleven series, same weekly
    // bit patterns, same baseline sample.
    use simcore::ExecPool;
    let cfg = tiny_cfg(41);
    let serial = StudyRun::execute_on(&cfg, &ExecPool::serial());
    for workers in [2, 3, 8] {
        let par = StudyRun::execute_on(&cfg, &ExecPool::new(workers));
        assert_eq!(serial.attacks, par.attacks, "attacks diverged at {workers} workers");
        for id in ObsId::ALL {
            assert_eq!(
                serial.observations(id),
                par.observations(id),
                "{} observations diverged at {workers} workers",
                id.name()
            );
            let sv: Vec<u64> =
                serial.weekly_series(id).values.iter().map(|v| v.to_bits()).collect();
            let pv: Vec<u64> =
                par.weekly_series(id).values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(sv, pv, "{} weekly series diverged at {workers} workers", id.name());
        }
        assert_eq!(
            serial.netscout_baseline_tuples(),
            par.netscout_baseline_tuples()
        );
    }
    // The config-level knob routes through the same machinery.
    let mut one = cfg.clone();
    one.workers = Some(1);
    let mut four = cfg.clone();
    four.workers = Some(4);
    let a = StudyRun::execute(&one);
    let b = StudyRun::execute(&four);
    assert_eq!(a.attacks, b.attacks);
    for id in ObsId::ALL {
        assert_eq!(a.observations(id), b.observations(id));
    }
}

#[test]
fn parallel_generation_matches_serial() {
    use attackgen::AttackGenerator;
    use netmodel::InternetPlan;
    use simcore::{ExecPool, SimRng};
    let cfg = tiny_cfg(43);
    let root = SimRng::new(cfg.seed);
    let mut plan_rng = root.fork_named("plan");
    let plan = InternetPlan::build(&cfg.net, &mut plan_rng);
    let gen = AttackGenerator::new(&plan, cfg.gen.clone(), &root);
    let serial = gen.generate_study_on(&ExecPool::serial());
    for workers in [2, 5] {
        let par = gen.generate_study_on(&ExecPool::new(workers));
        assert_eq!(serial, par, "generation diverged at {workers} workers");
    }
}

#[test]
fn different_seeds_differ() {
    let a = StudyRun::execute(&tiny_cfg(1));
    let b = StudyRun::execute(&tiny_cfg(2));
    // Attack populations differ in content (counts may coincide).
    let same = a
        .attacks
        .iter()
        .zip(b.attacks.iter())
        .filter(|(x, y)| x.targets == y.targets && x.start == y.start)
        .count();
    assert!(
        (same as f64) < 0.01 * a.attacks.len() as f64,
        "{same} identical attacks"
    );
}

#[test]
fn observation_independent_of_stream_order() {
    // Event-level verdicts are keyed by (attack id, observatory), so
    // observing a shuffled stream must produce the same verdict set.
    use simcore::SimRng;
    use telescope::Telescope;
    let cfg = tiny_cfg(5);
    let run = StudyRun::execute(&cfg);
    let root = SimRng::new(cfg.seed).fork_named("observatories");
    let tele = Telescope::ucsd(&run.plan);
    let observe = |rows: &mut dyn Iterator<Item = attackgen::AttackRef<'_>>| {
        let mut out = attackgen::ObservationColumns::new();
        for a in rows {
            tele.observe_into(a, &root, &mut out);
        }
        let mut verdicts: Vec<_> = out
            .iter()
            .map(|o| (o.attack_id, o.start, o.targets.to_vec()))
            .collect();
        verdicts.sort_by_key(|v| v.0);
        verdicts
    };
    let forward = observe(&mut run.attacks.iter());
    let backward = observe(&mut run.attacks.iter().rev());
    assert!(
        !forward.is_empty(),
        "tiny run must produce telescope observations"
    );
    assert_eq!(forward, backward);
}

#[test]
fn config_serde_roundtrip_preserves_results() {
    let cfg = tiny_cfg(7);
    let json = serde_json::to_string(&cfg).unwrap();
    let cfg2: StudyConfig = serde_json::from_str(&json).unwrap();
    let a = StudyRun::execute(&cfg);
    let b = StudyRun::execute(&cfg2);
    assert_eq!(a.attacks.len(), b.attacks.len());
    for id in ObsId::MAIN_TEN {
        assert_eq!(a.observations(id).len(), b.observations(id).len());
    }
}
