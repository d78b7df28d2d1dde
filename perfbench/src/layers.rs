//! The pipeline's layers, driven one public call at a time so the
//! traced run can time each: plan build, attack generation, every
//! observatory serially over the attack columns, and the two ordered
//! post-passes (carpet merge, Netscout class split).

use crate::report::Metrics;
use crate::spans::{SpanId, Spans};
use attackgen::{AttackColumns, AttackGenerator, ObservationColumns};
use ddoscovery::StudyConfig;
use flowmon::{split_by_class_columns, Akamai, AlertColumns, IxpBlackholing, Netscout};
use honeypot::{reconstruct_carpet_columns, Honeypot};
use netmodel::InternetPlan;
use simcore::{ExecPool, SimRng};
use std::time::Instant;
use telescope::Telescope;

/// Observatory layer metric prefixes, in pipeline fan-out order.
pub const OBSERVERS: [&str; 8] = [
    "telescope.ucsd",
    "telescope.orion",
    "honeypot.hopscotch",
    "honeypot.amppot",
    "honeypot.newkid",
    "flowmon.ixp",
    "flowmon.akamai",
    "flowmon.netscout",
];

/// Build the plan and the attacks of `cfg` the way the pipeline does,
/// timing `netmodel.plan_s`, `attackgen.generate_s` and
/// `attackgen.attacks_per_s`.
pub fn plan_and_attacks(
    cfg: &StudyConfig,
    pool: &ExecPool,
    spans: &Spans,
    parent: SpanId,
    m: &mut Metrics,
) -> (InternetPlan, AttackColumns) {
    let root = SimRng::new(cfg.seed);
    let t = Instant::now();
    let plan = {
        let _s = spans.open("netmodel.plan", parent);
        InternetPlan::build(&cfg.net, &mut root.fork_named("plan"))
    };
    m.set("netmodel.plan_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let attacks = {
        let _s = spans.open("attackgen.generate", parent);
        AttackGenerator::new(&plan, cfg.gen.clone(), &root).generate_study_on(pool)
    };
    let secs = t.elapsed().as_secs_f64();
    m.set("attackgen.generate_s", secs);
    m.set("attackgen.attacks_per_s", attacks.len() as f64 / secs);
    (plan, attacks)
}

/// Run every observatory serially over `attacks`, then the carpet
/// merge and the Netscout split, recording `<observer>_s`,
/// `<observer>.kept_ratio`, `honeypot.carpet_merge_s` and
/// `flowmon.netscout_split_s`.
pub fn observe(
    cfg: &StudyConfig,
    plan: &InternetPlan,
    attacks: &AttackColumns,
    spans: &Spans,
    parent: SpanId,
    m: &mut Metrics,
) {
    let obs_root = SimRng::new(cfg.seed).fork_named("observatories");
    let offered = attacks.len().max(1) as f64;
    let timed = |name: &'static str, m: &mut Metrics, f: &mut dyn FnMut() -> usize| {
        let t = Instant::now();
        let kept = {
            let _s = spans.open(name, parent);
            f()
        };
        m.set(&format!("{name}_s"), t.elapsed().as_secs_f64());
        m.set(&format!("{name}.kept_ratio"), kept as f64 / offered);
    };
    let plain = |observe: &dyn Fn(attackgen::AttackRef<'_>, &mut ObservationColumns) -> bool| {
        let mut out = ObservationColumns::new();
        for i in 0..attacks.len() {
            observe(attacks.get(i), &mut out);
        }
        out
    };
    let ucsd = Telescope::ucsd(plan);
    let orion = Telescope::orion(plan);
    let hopscotch = Honeypot::hopscotch(plan);
    let amppot = Honeypot::amppot(plan);
    let newkid = Honeypot::newkid(plan);
    let ixp = IxpBlackholing::with_defaults(plan);
    let akamai = Akamai::with_defaults(plan);
    let netscout = Netscout::with_defaults(plan);

    timed("telescope.ucsd", m, &mut || {
        plain(&|a, o| ucsd.observe_into(a, &obs_root, o)).len()
    });
    timed("telescope.orion", m, &mut || {
        plain(&|a, o| orion.observe_into(a, &obs_root, o)).len()
    });
    let mut honeypot_raw = Vec::new();
    for (name, hp) in [
        ("honeypot.hopscotch", &hopscotch),
        ("honeypot.amppot", &amppot),
        ("honeypot.newkid", &newkid),
    ] {
        timed(name, m, &mut || {
            let raw = plain(&|a, o| hp.observe_into(a, &obs_root, o));
            let kept = raw.len();
            honeypot_raw.push(raw);
            kept
        });
    }
    timed("flowmon.ixp", m, &mut || {
        (0..attacks.len())
            .filter(|&i| ixp.observe_view(attacks.get(i), &obs_root).is_some())
            .count()
    });
    timed("flowmon.akamai", m, &mut || {
        let mut out = ObservationColumns::new();
        for i in 0..attacks.len() {
            akamai.observe_into(attacks.get(i), &obs_root, &mut out);
        }
        out.len()
    });
    let mut alerts = AlertColumns::new();
    timed("flowmon.netscout", m, &mut || {
        for i in 0..attacks.len() {
            let a = attacks.get(i);
            if let Some((class, severity)) = netscout.observe_view(a, &obs_root) {
                alerts.push(a, class, severity);
            }
        }
        alerts.len()
    });

    let gap = i64::from(cfg.obs.carpet_gap_secs);
    let t = Instant::now();
    {
        let _s = spans.open("honeypot.carpet_merge", parent);
        for raw in &honeypot_raw {
            std::hint::black_box(reconstruct_carpet_columns(plan, raw, gap));
        }
    }
    m.set("honeypot.carpet_merge_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    {
        let _s = spans.open("flowmon.netscout_split", parent);
        std::hint::black_box(split_by_class_columns(&alerts));
    }
    m.set("flowmon.netscout_split_s", t.elapsed().as_secs_f64());
}
