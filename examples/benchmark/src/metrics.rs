//! The metric registry: every name the benchmark reports, with its unit
//! and which direction is better. `BENCHMARK.json` lists the same names
//! (`--list-metrics` prints them in its format), and a traced run fails
//! if what it measured is not exactly this list.

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "higher",
    }
}

/// `(definition, regression bound as a share of the parent's median)`.
pub const END_TO_END: [(Def, f64); 3] = [
    (lo("wall_s", "s"), 0.25),
    (lo("setup_s", "s"), 0.25),
    (lo("peak_heap_mib", "MiB"), 0.10),
];

pub const PER_LAYER: &[Def] = &[
    // simnet::event — probes, hold 16 384
    lo("simnet.event.hold_ns", "ns"),
    lo("simnet.event.keyed_hold_ns", "ns"),
    lo("simnet.event.far_hold_ns", "ns"),
    // simnet::engine
    lo("simnet.engine.dispatch_ns", "ns"),
    // simnet::topology
    lo("simnet.topology.build_fat_tree_k16_us", "us"),
    lo("simnet.topology.build_dragonfly_1m_us", "us"),
    lo("simnet.topology.route_fat_tree_ns", "ns"),
    lo("simnet.topology.route_dragonfly_ns", "ns"),
    lo("simnet.topology.route_valiant_ns", "ns"),
    // simnet::network
    lo("simnet.network.transfer_64b_ns", "ns"),
    lo("simnet.network.transfer_4mib_ns", "ns"),
    // simnet::packetnet / switch
    lo("simnet.packetnet.packet_ns", "ns"),
    lo("simnet.switch.packet_ns", "ns"),
    // simnet::shard
    lo("simnet.shard.windows", "count"),
    lo("simnet.shard.remote_events", "count"),
    lo("simnet.shard.window_us_jobs1", "us"),
    lo("simnet.shard.window_us_jobs2", "us"),
    lo("simnet.shard.event_ns_jobs1", "ns"),
    lo("simnet.shard.event_ns_jobs2", "ns"),
    lo("simnet.shard.spec_wasted_ratio", "ratio"),
    lo("simnet.shard.spec_event_ns_jobs2", "ns"),
    lo("simnet.shard.snapshot_ms", "ms"),
    lo("simnet.shard.restore_ms", "ms"),
    // simnet::channel
    lo("simnet.channel.push_ns", "ns"),
    lo("simnet.channel.push_batch_ns", "ns"),
    // collectives::simx
    lo("collectives.simx.schedule_us", "us"),
    lo("collectives.simx.msg_ns_64b", "ns"),
    lo("collectives.simx.msg_ns_4mib", "ns"),
    // collectives::parsim
    lo("collectives.parsim.ring_msg_ns_jobs1", "ns"),
    lo("collectives.parsim.ring_msg_ns_jobs2", "ns"),
    lo("collectives.parsim.program_msg_ns_jobs1", "ns"),
    lo("collectives.parsim.program_msg_ns_jobs2", "ns"),
    // collectives::hier
    lo("collectives.hier.allreduce_1m_ms", "ms"),
    // workloads
    lo("workloads.compile_ms", "ms"),
    lo("workloads.cell_ms.stencil", "ms"),
    lo("workloads.cell_ms.training", "ms"),
    lo("workloads.cell_ms.param-server", "ms"),
    lo("workloads.cell_ms.shuffle", "ms"),
    lo("workloads.cell_ms.serving", "ms"),
    // arch
    lo("arch.projection_us", "us"),
    // rms::sched
    lo("rms.sched.plan_admissions_us", "us"),
    lo("rms.sched.batch_sim_ms", "ms"),
    // rms::lifecycle
    lo("rms.lifecycle.churn_plan_ms", "ms"),
    lo("rms.lifecycle.fleet_100k_ms", "ms"),
    lo("rms.lifecycle.transitions", "count"),
    lo("rms.lifecycle.transition_ns", "ns"),
    // serve::canonical
    lo("serve.canonical.hash_ns", "ns"),
    // serve::cache
    lo("serve.cache.hit_ns", "ns"),
    lo("serve.cache.miss_overhead_ns", "ns"),
    lo("serve.cache.evict_ns", "ns"),
    hi("serve.cache.hit_ratio_hot", "ratio"),
    hi("serve.cache.hit_ratio_churn", "ratio"),
    lo("serve.cache.evictions", "count"),
    // serve::server / client
    lo("serve.server.cold_sweep_ms", "ms"),
    lo("serve.server.warm_sweep_us", "us"),
    hi("serve.client.hot_req_per_s", "1/s"),
    hi("serve.client.churn_req_per_s", "1/s"),
    lo("serve.client.p50_ns", "ns"),
    lo("serve.client.p99_ns", "ns"),
    // serve::incremental
    hi("serve.incremental.events_saved_ratio", "ratio"),
    lo("serve.incremental.resume_ms", "ms"),
    // nic
    lo("nic.post_poll_ns", "ns"),
    lo("nic.mr_register_ns", "ns"),
    hi("nic.rdma_write_1m_gbps", "Gb/s"),
    // msg
    lo("msg.sockets_64b_ns", "ns"),
    lo("msg.sockets_16k_ns", "ns"),
    hi("msg.sockets_1m_gbps", "Gb/s"),
    lo("msg.eager_64b_ns", "ns"),
    lo("msg.eager_16k_ns", "ns"),
    lo("msg.rndv_64b_ns", "ns"),
    lo("msg.rndv_16k_ns", "ns"),
    hi("msg.rndv_1m_gbps", "Gb/s"),
    lo("msg.rndv_host_copies_per_msg", "count"),
    hi("msg.frame_pool_hit_ratio", "ratio"),
    lo("msg.match_ns", "ns"),
    // core
    lo("core.cluster_spawn_us", "us"),
    // obs
    lo("obs.counter_add_ns", "ns"),
    lo("obs.histogram_record_ns", "ns"),
    lo("obs.export_prometheus_ms", "ms"),
    lo("obs.merge_ms", "ms"),
    // bench::sweep
    lo("bench.sweep.point_dispatch_us", "us"),
    hi("bench.sweep.f3_jobs2_speedup", "ratio"),
    // bench::figures — one span per generator
    lo("bench.figures.f1_ms", "ms"),
    lo("bench.figures.f2_ms", "ms"),
    lo("bench.figures.f3_ms", "ms"),
    lo("bench.figures.f4_ms", "ms"),
    lo("bench.figures.f5_ms", "ms"),
    lo("bench.figures.t2_ms", "ms"),
    lo("bench.figures.f6_ms", "ms"),
    lo("bench.figures.f7_ms", "ms"),
    lo("bench.figures.f8_ms", "ms"),
    lo("bench.figures.f9_ms", "ms"),
    lo("bench.figures.f10_ms", "ms"),
    lo("bench.figures.f11_ms", "ms"),
    lo("bench.figures.f12_ms", "ms"),
    lo("bench.figures.f13_ms", "ms"),
    lo("bench.figures.f14_ms", "ms"),
    lo("bench.figures.a2_ms", "ms"),
    // Diagnostics of the run's own workload.
    hi("run.iterations", "count"),
    lo("run.wall_median_s", "s"),
    lo("run.wall_hi_s", "s"),
    hi("run.wall_hi_pct", "%"),
    lo("run.iqr_ratio", "ratio"),
    lo("run.cpu_s", "s"),
    lo("run.peak_rss_mib", "MiB"),
    lo("run.trace_overhead_ratio", "ratio"),
    hi("run.attributed_ratio", "ratio"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|(d, _)| d)
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map(|d| d.unit)
}
