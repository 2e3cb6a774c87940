//! The paper's end-to-end stories, each pinned on single lab cells at
//! test scale (`CellTuning::fast()`, seed 7): the A/B/C comparison on the
//! chain, the §3.5 multihome failover under a partition, the edge probe
//! plane catching the throttle, and the metro population. The same cells
//! ride in the `paper`, `flaky`, `detection` and `metro` named matrices.

mod tests {
    use crate::{
        run_cell, AdversarySpec, CellReport, CellSpec, CellTuning, EventTimelineSpec,
        LinkProfileSpec, StackKind, TopologySpec, WorkloadSpec,
    };

    /// The chain, clean-link VoIP cell with the given adversary and stack.
    fn chain(adversary: AdversarySpec, stack: StackKind) -> CellSpec {
        CellSpec {
            topology: TopologySpec::chain(),
            link: LinkProfileSpec::Clean,
            workload: WorkloadSpec::voip_default(),
            adversary,
            stack,
            events: EventTimelineSpec::Static,
            probes: false,
            seed: 7,
        }
    }

    fn run(spec: &CellSpec) -> CellReport {
        run_cell(spec, &CellTuning::fast())
    }

    fn baseline() -> CellReport {
        run(&chain(AdversarySpec::None, StackKind::Plain))
    }

    fn throttled() -> CellReport {
        run(&chain(
            AdversarySpec::content_dpi_default(),
            StackKind::Plain,
        ))
    }

    fn counter(report: &CellReport, name: &str) -> u64 {
        report
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    #[test]
    fn baseline_delivers_nearly_everything() {
        let report = baseline();
        let f = &report.flows[0];
        assert!(f.tx_packets >= 100, "CBR schedule ran: {}", f.tx_packets);
        assert!(f.delivery_ratio > 0.99, "neutral network delivers: {f:?}");
        assert_eq!(report.policy_drops, 0);
        assert!(report.replies > 0, "echo path works");
    }

    #[test]
    fn dpi_throttle_degrades_plain_traffic() {
        let baseline = baseline();
        let throttled = throttled();
        assert!(throttled.policy_drops > 0, "DPI matched and dropped");
        assert!(
            throttled.goodput_bps() < baseline.goodput_bps() * 0.6,
            "throttle must bite: baseline {} vs throttled {}",
            baseline.goodput_bps(),
            throttled.goodput_bps()
        );
    }

    #[test]
    fn neutralizer_defeats_content_dpi() {
        let throttled = throttled();
        let neutralized = run(&chain(
            AdversarySpec::content_dpi_default(),
            StackKind::Neutralized,
        ));
        assert_eq!(
            neutralized.policy_drops, 0,
            "encrypted payload gives DPI nothing to match"
        );
        assert!(
            neutralized.goodput_bps() > throttled.goodput_bps() * 2.0,
            "goodput recovers: neutralized {} vs throttled {}",
            neutralized.goodput_bps(),
            throttled.goodput_bps()
        );
        assert!(
            neutralized.verified_return_blocks > 0,
            "anonymized return path verified"
        );
    }

    #[test]
    fn flaky_isp_fails_over_and_recovers() {
        let baseline = baseline();
        let flaky = run(&CellSpec {
            topology: TopologySpec::Multihomed,
            events: EventTimelineSpec::PartitionHeal,
            ..chain(AdversarySpec::content_dpi_default(), StackKind::Neutralized)
        });
        assert!(
            counter(&flaky, "source.failovers") >= 1,
            "the partition must trigger a failover"
        );
        assert!(
            counter(&flaky, "neutralizer-b.data_forwarded") > 0,
            "traffic must actually flow through the fallback provider: {:?}",
            flaky.counters
        );
        assert_eq!(
            flaky.policy_drops, 0,
            "neutralization still defeats the DPI on the fallback path"
        );
        // The headline claim: failover + neutralization keep goodput at
        // or above 80% of the undisturbed baseline despite the partition.
        assert!(
            flaky.goodput_bps() >= baseline.goodput_bps() * 0.8,
            "failover must restore goodput: flaky {} vs baseline {}",
            flaky.goodput_bps(),
            baseline.goodput_bps()
        );
    }

    #[test]
    fn detect_scenario_catches_the_throttle_from_the_edge() {
        let report = run(&CellSpec {
            probes: true,
            ..chain(AdversarySpec::content_dpi_default(), StackKind::Plain)
        });
        let probe = report
            .probe
            .as_ref()
            .expect("probes: true runs the probe plane");
        assert!(probe.plain_tx >= 10 && probe.plain_tx == probe.neut_tx);
        assert!(
            probe.plain_delivery() < probe.neut_delivery() * 0.65,
            "the DPI throttle must show in the differential pair: plain {} vs neut {}",
            probe.plain_delivery(),
            probe.neut_delivery()
        );
        assert!(!probe.hops.is_empty(), "the TTL sweep names the path");
        // Cells without the probe plane stay probe-free.
        assert!(baseline().probe.is_none());
    }

    #[test]
    fn metro_dpi_collapses_the_population_and_the_neutralized_cohort_recovers() {
        let metro = |adversary, stack| {
            run(&CellSpec {
                topology: TopologySpec::metro_default(),
                ..chain(adversary, stack)
            })
        };
        let base = metro(AdversarySpec::None, StackKind::Plain);
        let dpi = metro(AdversarySpec::content_dpi_default(), StackKind::Plain);

        // The report carries the workload flow first, then one row per
        // population cohort.
        let names: Vec<&str> = dpi.flows.iter().map(|f| f.flow.as_str()).collect();
        assert_eq!(names, ["voip", "pop0-voip", "pop1-neutral"]);
        let goodput = |report: &CellReport, name: &str| -> f64 {
            report
                .flows
                .iter()
                .find(|f| f.flow == name)
                .expect("cohort row")
                .goodput_bps
        };

        // Content DPI collapses the marked population cohort...
        let voip_base = goodput(&base, "pop0-voip");
        let voip_dpi = goodput(&dpi, "pop0-voip");
        assert!(
            voip_dpi < 0.5 * voip_base,
            "DPI must collapse the marked cohort: {voip_dpi} vs {voip_base}"
        );
        // ...while the unmarked cohort rides through untouched.
        let neutral_base = goodput(&base, "pop1-neutral");
        let neutral_dpi = goodput(&dpi, "pop1-neutral");
        assert!(
            neutral_dpi > 0.9 * neutral_base,
            "the unmarked cohort must ride through DPI: {neutral_dpi} vs {neutral_base}"
        );

        // And the §3.2 answer still holds at metro scale: switching the
        // workload onto the neutralized stack recovers its goodput from
        // the same DPI policy that crushed the plain run.
        let neut = metro(AdversarySpec::content_dpi_default(), StackKind::Neutralized);
        let workload_base = goodput(&base, "voip");
        let workload_dpi = goodput(&dpi, "voip");
        let workload_neut = goodput(&neut, "voip");
        assert!(
            workload_dpi < 0.5 * workload_base,
            "DPI must bite the plain workload: {workload_dpi} vs {workload_base}"
        );
        assert!(
            workload_neut > 0.9 * workload_base,
            "the neutralized workload must recover: {workload_neut} vs {workload_base}"
        );

        // The population plane surfaces in the cell counters.
        assert!(
            counter(&dpi, "population.endpoints") >= 1_000,
            "population counters missing: {:?}",
            dpi.counters
        );
    }
}
