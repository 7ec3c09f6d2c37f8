//! The traced pass: replay of sampled publications through each
//! layer's public functions, the contention and instrumentation
//! probes, and the ledger that turns spans into per-layer metrics.
//!
//! A **replay** takes the input of a real publication and walks it by
//! hand through the layers in broker order — (parse → detect →
//! parse_notify →) event → match → render → send → consumer — each
//! step a span under one `replay` root. These are the *chain* layers:
//! their self times should add up to the real call's wall, and what is
//! left is `ledger.unaccounted_share`. A second root, `probe`, times
//! functions that run *inside* chain layers on the same input
//! (`xml.write`, `soap.xml_len`, `xpath.eval`, …); probes are reported
//! but never added to the ledger, or they would be counted twice.

use crate::gen::Content;
use crate::layers::{self, Compiled};
use crate::spec;
use crate::trace::{self, HandlerCell, LayerTotals, SpanId, Tracer};
use crate::workloads::{Limit, Op, Run, Section, NULL_URI, REPLAY_URI};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Replays publications and keeps what the ledger needs beside spans.
pub struct Replayer {
    cell: Arc<HandlerCell>,
    filters: HashMap<Content, Compiled>,
    population: Vec<crate::oracle::Compiled>,
    /// Publications replayed.
    pub replayed: u64,
    /// Σ duration of the real calls that were replayed, ns.
    pub real_ns: u64,
    /// Σ subscriptions matched in replays.
    pub matched: u64,
}

impl Replayer {
    /// Register the replay endpoint on the run's network.
    pub fn new(run: &Run, tracer: &Tracer) -> Self {
        let cell = Arc::new(HandlerCell::new(tracer.epoch()));
        layers::register_replay_consumer(&run.net, REPLAY_URI, &cell);
        Replayer {
            cell,
            filters: HashMap::new(),
            population: run
                .population
                .iter()
                .map(crate::oracle::Compiled::new)
                .collect(),
            replayed: 0,
            real_ns: 0,
            matched: 0,
        }
    }

    /// Replay `op`, whose real call is span `root`, through the chain
    /// layers in broker order.
    pub fn replay_chain(&mut self, run: &Run, tr: &mut Tracer, op: &Op, root: SpanId) {
        let Some(seq) = op_seq(op) else { return };
        let real = &tr.spans()[root as usize];
        self.real_ns += real.end_ns - real.start_ns;
        self.replayed += 1;

        let chain = tr.begin("replay", None, seq);
        let event = match op {
            Op::Publish { topic, payload, .. } => {
                tr.span("core.event", Some(chain), seq, || {
                    layers::core_event(topic, payload)
                })
                .0
            }
            Op::Ingest { bytes, .. } => {
                let (env, _) = tr.span("soap.from_xml", Some(chain), seq, || {
                    layers::soap_from_xml(bytes)
                });
                let env = env.expect("the benchmark's own bytes parse");
                // The hop that carries the message to the broker.
                let copy = env.clone();
                tr.span("transport.send", Some(chain), seq, || {
                    layers::transport_send(&run.net, NULL_URI, copy)
                });
                let (dialect, _) = tr.span("core.detect", Some(chain), seq, || {
                    layers::core_detect(&env)
                });
                let (parsed, _) = tr.span("notification.parse_notify", Some(chain), seq, || {
                    layers::notification_parse_notify(&env, dialect)
                });
                tr.span("core.event", Some(chain), seq, || {
                    layers::core_event_from_wire(&env, dialect, parsed)
                })
                .0
                .expect("the benchmark's own messages have a body")
            }
            _ => unreachable!("op_seq is None for control operations"),
        };
        let (matched, _) = tr.span("core.registry.match", Some(chain), seq, || {
            layers::registry_match(&run.net, &run.broker, &event)
        });
        self.matched += matched.len() as u64;
        let render = tr.begin("core.render", Some(chain), seq);
        let envelopes = layers::core_render(&run.broker, &event, &matched);
        tr.end(render);
        tr.set_items(render, envelopes.len() as u32);
        for env in envelopes {
            let send = tr.begin("transport.send", Some(chain), seq);
            layers::transport_send(&run.net, REPLAY_URI, env);
            tr.end(send);
            tr.record_cell("consumer.handle", send, seq, &self.cell);
        }
        tr.end(chain);
    }

    /// Time, on `op`'s input, the functions that run *inside* the chain
    /// layers. A pass of its own after all chains, so that the chain
    /// pass runs back to back like the real loop does.
    pub fn replay_probes(&mut self, run: &Run, tr: &mut Tracer, op: &Op) {
        let Some(seq) = op_seq(op) else { return };
        let (event, topic, bytes) = match op {
            Op::Publish { topic, payload, .. } => (
                layers::core_event(topic, payload),
                Some(topic.as_str()),
                None,
            ),
            Op::Ingest { topic, bytes, .. } => {
                let env = layers::soap_from_xml(bytes).expect("the benchmark's own bytes parse");
                let dialect = layers::core_detect(&env);
                let parsed = layers::notification_parse_notify(&env, dialect);
                let event = layers::core_event_from_wire(&env, dialect, parsed)
                    .expect("the benchmark's own messages have a body");
                (event, topic.as_deref(), Some(bytes.as_str()))
            }
            _ => unreachable!("op_seq is None for control operations"),
        };
        let matched = layers::registry_match(&run.net, &run.broker, &event);
        // Fresh envelopes, whose shared payload has not been serialized
        // yet — as the first send of a publication finds them.
        let envelopes = layers::core_render(&run.broker, &event, &matched);
        let element = layers::event_element(&event);

        let probe = tr.begin("probe", None, seq);
        tr.span("xml.write", Some(probe), seq, || layers::xml_write(element));
        if let Some(bytes) = bytes {
            tr.span("xml.parse", Some(probe), seq, || layers::xml_parse(bytes));
        }
        let id = tr.begin("soap.xml_len", Some(probe), seq);
        for env in &envelopes {
            std::hint::black_box(layers::soap_xml_len(env));
        }
        tr.end(id);
        tr.set_items(id, envelopes.len() as u32);
        if let Some(first) = envelopes.first() {
            tr.span("soap.to_xml", Some(probe), seq, || {
                layers::soap_to_xml(first)
            });
        }
        tr.span("notification.notify", Some(probe), seq, || {
            layers::notification_notify(NULL_URI, topic, element)
        });
        tr.span("eventing.notification", Some(probe), seq, || {
            layers::eventing_notification(NULL_URI, element)
        });
        let id = tr.begin("topics.match", Some(probe), seq);
        let n = layers::topics_match(&matched, &event);
        tr.end(id);
        tr.set_items(id, n as u32);

        let candidates = content_candidates(&self.population, topic);
        if let Some(&first) = candidates.first() {
            tr.span("xpath.compile", Some(probe), seq, || {
                layers::xpath_compile(&first.xpath())
            });
            for c in &candidates {
                self.filters.entry(*c).or_insert_with(|| {
                    layers::xpath_compile(&c.xpath()).expect("the benchmark's own filters compile")
                });
            }
            let id = tr.begin("xpath.eval", Some(probe), seq);
            for c in &candidates {
                std::hint::black_box(layers::xpath_eval(&self.filters[c], element));
            }
            tr.end(id);
            tr.set_items(id, candidates.len() as u32);
        }
        tr.end(probe);
    }
}

/// Sequence number of a publication, `None` for a control operation.
fn op_seq(op: &Op) -> Option<u64> {
    match op {
        Op::Publish { facts, .. } | Op::Ingest { facts, .. } => Some(facts.seq),
        _ => None,
    }
}

/// The content filters the registry has to evaluate for a publication
/// on `topic`, worked out from the population by the benchmark: every
/// topic-filtered subscription whose topic admits the publication and
/// that carries a content filter, plus one evaluation for the
/// content-only subscriptions, which the registry groups by their
/// literal (`path = 'value'`) and evaluates once per group.
fn content_candidates(population: &[crate::oracle::Compiled], topic: Option<&str>) -> Vec<Content> {
    let got: Option<Vec<&str>> = topic.map(|t| t.split('/').collect());
    let mut out = Vec::new();
    let mut content_only = None;
    for sub in population {
        let Some(content) = sub.spec.content else {
            continue;
        };
        match &sub.spec.topic {
            None => content_only = Some(content),
            Some(_) if sub.topic_admits(got.as_deref()) => out.push(content),
            Some(_) => {}
        }
    }
    out.extend(content_only);
    out
}

/// Per-call cost of `f` on one thread, then on two threads at once;
/// returns `(ns_one_thread, ns_two_threads)` per call.
fn contention(iterations: usize, f: &(dyn Fn(usize) + Sync)) -> (f64, f64) {
    let time = |n: usize| {
        let t0 = Instant::now();
        for i in 0..n {
            f(i);
        }
        t0.elapsed().as_nanos() as f64 / n as f64
    };
    time(iterations / 4); // warm
    let one = time(iterations);
    let barrier = Barrier::new(2);
    let two = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    time(iterations)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a probe thread does not panic"))
            .sum::<f64>()
            / 2.0
    });
    (one, two)
}

/// What the probes after the traced section measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probes {
    /// `Registry::matching` per call: one thread, two threads.
    pub match_ns: (f64, f64),
    /// `Network::send` to a no-op endpoint per call: one, two threads.
    pub send_ns: (f64, f64),
    /// (wall with broker instrumentation on − off) ÷ off.
    pub obs_overhead_share: f64,
}

/// Run the probes on a warmed-up, quiescent run.
pub fn run_probes(run: &mut Run, quick: bool) -> Probes {
    let scale = if quick { 10 } else { 1 };
    // Inputs: the events and rendered envelopes of 64 publications.
    let wire = run.plan.wire_us;
    layers::set_wire_delay_us(&run.net, 0);
    let mut events = Vec::new();
    let mut envelopes = Vec::new();
    for k in 0..64u64 {
        let facts = crate::gen::EventFacts::of(
            k,
            Some((k % u64::from(run.plan.topics)) as u32),
            run.plan.subs,
        );
        let topic = run.plan.topic_name(facts.topic.expect("set above"));
        let event = layers::core_event(&topic, &layers::event_payload(&facts));
        let matched = layers::registry_match(&run.net, &run.broker, &event);
        envelopes.extend(
            layers::core_render(&run.broker, &event, &matched)
                .into_iter()
                .take(4),
        );
        events.push(event);
    }
    let match_ns = contention(2_000 / scale, &|i| {
        std::hint::black_box(layers::registry_match(
            &run.net,
            &run.broker,
            &events[i % events.len()],
        ));
    });
    let send_ns = if envelopes.is_empty() {
        (0.0, 0.0)
    } else {
        contention(20_000 / scale, &|i| {
            // The clone is part of both measurements alike.
            let env = envelopes[i % envelopes.len()].clone();
            std::hint::black_box(layers::transport_send(&run.net, NULL_URI, env));
        })
    };
    layers::clear_transport_trace(&run.net);
    layers::set_wire_delay_us(&run.net, wire);

    // Broker instrumentation on vs off, in alternating blocks so that
    // drift hits both alike.
    let block = Limit {
        ops: (run.plan.full_ops / 40).max(32),
        seconds: f64::INFINITY,
        drain: true,
    };
    let (mut on, mut off) = (Section::default(), Section::default());
    for _ in 0..3 {
        run.broker.set_obs_enabled(false);
        off.add(&run.publish_section(block, false, None));
        run.broker.set_obs_enabled(true);
        on.add(&run.publish_section(block, false, None));
    }
    let per_pub = |s: &Section| s.wall_ns as f64 / s.publications.max(1) as f64;
    Probes {
        match_ns,
        send_ns,
        // Whole blocks, drain included on both sides: totals compare.
        obs_overhead_share: (per_pub(&on) - per_pub(&off)) / per_pub(&off),
    }
}

/// Turn the traced section's spans into the per-layer metrics.
pub fn ledger(
    run: &Run,
    tracer: &Tracer,
    replayer: &Replayer,
    untraced: &Section,
    traced: &Section,
    probes: &Probes,
) -> BTreeMap<String, f64> {
    let totals = trace::self_totals(tracer.spans());
    let layer = |name: &str| totals.get(name).copied().unwrap_or_default();
    let replayed = replayer.replayed.max(1) as f64;
    let mut m: BTreeMap<String, f64> = BTreeMap::new();

    // The base every share is taken of: the mean wall of the real calls
    // that were replayed; for a federation, whose call only admits, the
    // traced section's wall per publication.
    let wall_per_pub = if run.plan.shards > 0 {
        traced.pub_wall_ns
    } else {
        replayer.real_ns as f64 / replayed
    };

    let per_op = |t: LayerTotals| {
        (
            t.self_ns as f64 / t.count.max(1) as f64,
            t.self_allocs as f64 / t.count.max(1) as f64,
        )
    };
    for name in spec::TIMED_LAYERS {
        let t = layer(name);
        let (ns, allocs) = if name.starts_with("core.registry.") && name != "core.registry.match" {
            per_op(t)
        } else {
            (t.self_ns as f64 / replayed, t.self_allocs as f64 / replayed)
        };
        m.insert(format!("{name}.ns"), ns);
        m.insert(format!("{name}.allocs"), allocs);
    }
    let mut accounted = 0.0;
    for name in spec::CHAIN_LAYERS {
        let ns = m[&format!("{name}.ns")];
        accounted += ns;
        m.insert(format!("{name}.share"), ns / wall_per_pub);
    }
    let items = trace::items_by_name(tracer.spans());
    for name in spec::COUNTED_LAYERS {
        let n = items.get(name).copied().unwrap_or(0);
        m.insert(format!("{name}.count"), n as f64 / replayed);
    }

    let deliveries_per_pub = layer("consumer.handle").count as f64 / replayed;
    let delivery_layers = [
        "core.registry.match",
        "core.render",
        "transport.send",
        "consumer.handle",
    ];
    let explained: f64 = delivery_layers.iter().map(|n| m[&format!("{n}.ns")]).sum();
    m.insert(
        "core.delivery.residual.ns".into(),
        (wall_per_pub - explained) / deliveries_per_pub.max(1.0),
    );
    m.insert(
        "core.registry.match.matched".into(),
        replayer.matched as f64 / replayed,
    );
    let ratio = |(one, two): (f64, f64)| if one > 0.0 { two / one } else { 0.0 };
    m.insert("core.registry.match.ns_2thr".into(), probes.match_ns.1);
    m.insert(
        "core.registry.match.contention_ratio".into(),
        ratio(probes.match_ns),
    );
    m.insert("transport.send.ns_2thr".into(), probes.send_ns.1);
    m.insert(
        "transport.send.contention_ratio".into(),
        ratio(probes.send_ns),
    );

    let admit = layer("core.federation.admit");
    m.insert(
        "core.federation.admit.ns".into(),
        admit.self_ns as f64 / admit.count.max(1) as f64,
    );
    m.insert(
        "core.federation.flush_wait.ns".into(),
        layer("core.federation.flush_wait").self_ns as f64 / traced.publications.max(1) as f64,
    );
    m.insert(
        "core.federation.queue_depth_max".into(),
        run.queue_depth_max as f64,
    );
    m.insert(
        "core.federation.shed".into(),
        run.broker.shed_events() as f64,
    );

    m.insert("obs.overhead_share".into(), probes.obs_overhead_share);
    m.insert("ledger.accounted_share".into(), accounted / wall_per_pub);
    m.insert(
        "ledger.unaccounted_share".into(),
        1.0 - accounted / wall_per_pub,
    );
    m.insert(
        "trace.overhead_share".into(),
        (traced.pub_wall_ns - untraced.pub_wall_ns) / untraced.pub_wall_ns,
    );
    m.insert("trace.spans".into(), tracer.spans().len() as f64);
    m.insert("trace.spans_dropped".into(), tracer.dropped as f64);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::grid_sub;

    #[test]
    fn candidates_are_topic_admitted_content_filters_plus_the_literal_group() {
        let population: Vec<_> = (0..20_000)
            .map(|i| crate::oracle::Compiled::new(&grid_sub(i, 2_500)))
            .collect();
        // Topic 1 (site 1): 8 K1 subscriptions on the topic, 200 K3 on the site.
        let c = content_candidates(&population, Some("grid/site1/node1"));
        assert_eq!(c.len(), 8 + 200 + 1);
        // Topic 0 (site 0): K0 only, no content filters; the literal group remains.
        assert_eq!(
            content_candidates(&population, Some("grid/site0/node0")).len(),
            1
        );
        assert_eq!(content_candidates(&population, None).len(), 1);
    }
}
