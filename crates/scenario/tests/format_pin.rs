//! Pins the scenario spec format to `docs/scenario-format.md`: the
//! version constant, the FNV-1a digest constants, the canonical section
//! and key order, and the round-trip property. Any change to the
//! canonical serialization must update the doc, bump
//! `SCENARIO_SPEC_VERSION`, re-pin every file in `scenarios/`, and
//! adjust this test in the same commit.

use jas_scenario::{ScenarioSpec, SCENARIO_SPEC_VERSION};
use jas_simkernel::snapshot::fnv1a;

/// A spec exercising every section the canonical form can emit.
const FULL: &str = r#"
[scenario]
name = "pin-probe"
version = 1
description = "format pin probe"

[run]
ramp_s = 5
steady_s = 30

[workload]
app = "jas"
ir = 10
curve = "flash-crowd"

[workload.flash]
start_s = 12
ramp_s = 2
hold_s = 6
peak = 6

[faults]
plan = "gc-storm@8-12:0.5"

[trace]
spec = "off"

[cluster]
nodes = 3
dispatch = "least-conn"
max_in_flight = 40

[autoscale]
min_nodes = 1
up_jops_per_node = 30.0
down_jops_per_node = 8.0
slo_miss_fraction = 0.1
slo_s = 2.0
evaluate_every = 4
cooldown_epochs = 8

[slo]
web_p90_s = 2.0
rmi_p90_s = 5.0
error_rate = 0.01
shed_fraction = 0.1
"#;

#[test]
fn format_version_is_pinned() {
    // Bumping this constant invalidates every pinned digest: do it only
    // with a matching docs/scenario-format.md update and a re-pin of
    // every file in scenarios/.
    assert_eq!(SCENARIO_SPEC_VERSION, 1);
}

#[test]
fn canonical_section_and_key_order_is_pinned() {
    let spec = ScenarioSpec::parse(FULL).expect("probe parses");
    let expected = "\
[scenario]
name = \"pin-probe\"
version = 1
description = \"format pin probe\"
[run]
ramp_s = 5
steady_s = 30
[workload]
app = \"jas\"
ir = 10
curve = \"flash-crowd\"
[workload.flash]
start_s = 12
ramp_s = 2
hold_s = 6
peak = 6
[faults]
plan = \"gc-storm@8-12:0.5\"
[trace]
spec = \"off\"
[cluster]
nodes = 3
dispatch = \"least-conn\"
max_in_flight = 40
[autoscale]
min_nodes = 1
up_jops_per_node = 30
down_jops_per_node = 8
slo_miss_fraction = 0.1
slo_s = 2
evaluate_every = 4
cooldown_epochs = 8
[slo]
web_p90_s = 2
rmi_p90_s = 5
error_rate = 0.01
shed_fraction = 0.1
";
    assert_eq!(spec.canonical_text(), expected);
    assert_eq!(spec.digest(), fnv1a(expected.as_bytes()));
}

#[test]
fn defaults_serialize_explicitly() {
    // Defaultable keys are written out in the canonical form, so a
    // future default change cannot silently move digests.
    let minimal = "[scenario]\nname = \"m\"\nversion = 1\n\
                   [run]\nramp_s = 1\nsteady_s = 10\n[workload]\nir = 5\n";
    let text = ScenarioSpec::parse(minimal)
        .expect("parses")
        .canonical_text();
    for needle in [
        "app = \"jas\"",
        "curve = \"constant\"",
        "plan = \"\"",
        "spec = \"off\"",
        "nodes = 1",
        "dispatch = \"round-robin\"",
        "max_in_flight = 64",
        "shed_fraction = 0.05",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    assert!(
        !text.contains("[workload.") && !text.contains("[autoscale]"),
        "inactive sections must be omitted:\n{text}"
    );
}

#[test]
fn canonical_text_is_a_fixed_point() {
    let spec = ScenarioSpec::parse(FULL).expect("probe parses");
    let reparsed = ScenarioSpec::parse(&spec.canonical_text()).expect("round-trips");
    assert_eq!(spec, reparsed);
    assert_eq!(reparsed.canonical_text(), spec.canonical_text());
}
