//! Environmental monitoring (keynote slides 35–40): a 200-node sensor
//! field under different collection protocols, failure injection, and
//! energy-harvesting management policies.
//!
//! ```sh
//! cargo run --release --example environmental_network
//! ```

use micronano::core::report::{fmt_f64, Table};
use micronano::policy::PolicyExpr;
use micronano::wsn::field::Field;
use micronano::wsn::harvest::{simulate_policy, HarvestConfig};
use micronano::wsn::protocol::Protocol;
use micronano::wsn::sim::{simulate_lifetime, LifetimeConfig};

fn main() {
    let field = Field::random(200, 200.0, 7);
    let cfg = LifetimeConfig {
        max_rounds: 5_000,
        ..LifetimeConfig::default()
    };

    println!("environmental sensor network: 200 nodes on 200 m × 200 m\n");

    let mut t = Table::new(
        "protocols",
        "collection protocol comparison",
        &[
            "protocol",
            "first death",
            "half dead",
            "delivered %",
            "avg coverage %",
        ],
    );
    let protocols = [
        Protocol::Direct,
        Protocol::tree(50.0, false),
        Protocol::tree(50.0, true),
        Protocol::cluster(0.1, false),
        Protocol::cluster(0.1, true),
    ];
    for p in protocols {
        let s = simulate_lifetime(&field, p, &cfg);
        t.row_owned(vec![
            p.label(),
            s.first_death_round.to_string(),
            s.half_death_round.to_string(),
            fmt_f64(s.delivered_ratio * 100.0),
            fmt_f64(s.avg_coverage * 100.0),
        ]);
    }
    println!("{t}");

    let mut f = Table::new(
        "failures",
        "redundancy under random node failures (cluster+agg)",
        &["failure rate / round", "half dead", "avg coverage %"],
    );
    for rate in [0.0, 0.0005, 0.002, 0.01] {
        let s = simulate_lifetime(
            &field,
            Protocol::cluster(0.1, true),
            &LifetimeConfig {
                failure_rate: rate,
                ..cfg.clone()
            },
        );
        f.row_owned(vec![
            fmt_f64(rate),
            s.half_death_round.to_string(),
            fmt_f64(s.avg_coverage * 100.0),
        ]);
    }
    println!("{f}");

    let hcfg = HarvestConfig::default();
    let mut h = Table::new(
        "harvest",
        "30 days on solar harvesting — management policies",
        &[
            "policy",
            "uptime %",
            "useful work (h)",
            "dead slots",
            "wasted (J)",
        ],
    );
    let policies = [
        PolicyExpr::Fixed(0.9),
        PolicyExpr::Fixed(0.05),
        PolicyExpr::Greedy {
            threshold: 0.3,
            duty_high: 0.9,
            duty_low: 0.05,
        },
        PolicyExpr::EnergyNeutral { alpha: 0.01 },
    ];
    for p in policies {
        let s = simulate_policy(&p, &hcfg);
        h.row_owned(vec![
            format!(
                "{}{}",
                p.label(),
                if let PolicyExpr::Fixed(d) = p {
                    format!("({d})")
                } else {
                    String::new()
                }
            ),
            fmt_f64(s.uptime * 100.0),
            fmt_f64(s.work / 3600.0),
            s.dead_slots.to_string(),
            fmt_f64(s.wasted),
        ]);
    }
    println!("{h}");
    println!(
        "reading: aggregation and clustering extend lifetime; the\n\
         energy-neutral policy converts harvested energy into the most\n\
         useful work without brown-outs — \"convert information into energy\n\
         savings\" (slide 38)."
    );
}
