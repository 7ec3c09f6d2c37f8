//! X-B4a: codec cost per specification version, plus the
//! allocation-regression harness for the zero-allocation hot path.
//!
//! §V.4's six categories of format difference have a cost dimension:
//! the four dialects produce envelopes of different sizes and shapes.
//! This bench measures building + serializing + reparsing the Subscribe
//! message and the notification message of each dialect.
//!
//! Expectation: WSN messages cost more than WSE ones (the Notify
//! wrapper and the Filter element add elements), and 1.3 costs slightly
//! more than 1.0 (Filter wrapper, CurrentTime/TerminationTime).
//!
//! The machine-readable side (`BENCH_codec.json`) additionally reports
//! **allocs/op and bytes/op** for the codec hot path — parse, render,
//! serialize, and a 256-subscriber mediated broker publication —
//! measured through a counting [`wsm_bench::CountingAlloc`] installed
//! as this binary's global allocator. The mediated-publish figure is
//! checked against [`MEDIATED_PUBLISH_ALLOC_BUDGET`]; exceeding it
//! fails the bench (and therefore the CI smoke job), so allocation
//! regressions on the fan-out path are caught at build time.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;
use wsm_addressing::EndpointReference;
use wsm_bench::{broker_with_subscribers, make_event, measure_allocs, AllocSample};
use wsm_eventing::{Filter, SubscribeRequest, WseCodec, WseVersion};
use wsm_messenger::SpecDialect;
use wsm_notification::{
    NotificationMessage, SharedNotificationMessage, WsnCodec, WsnFilter, WsnSubscribeRequest,
    WsnVersion,
};
use wsm_soap::Envelope;
use wsm_xml::SharedElement;

#[global_allocator]
static COUNTING: wsm_bench::CountingAlloc = wsm_bench::CountingAlloc;

/// Allocation budget for one mediated publication fanning out to 256
/// push subscribers (half WSE, half WSN), *including* the simulated
/// consumers' parse work. Reads ~5.9k allocs/op (23 per subscriber;
/// the render builds 3 nodes for a WSE delivery and 10 for a wrapped
/// WSN one, and the transport allocates nothing); it read 8.45k while
/// each delivery copied its class prototype's header vector and, for
/// wrapped WSN, its `Notify` body, and 14.1k while every envelope was
/// deep-copied a second time on its way into the consumer's handler.
/// A second per-subscriber tree copy — about 22 allocations each —
/// still fails the build.
const MEDIATED_PUBLISH_ALLOC_BUDGET: f64 = 11_000.0;

/// Allocation budget for encoding one 16-message wrapped `Notify`
/// batch (`notify_shared` + serialize) — the encode wrapped-mode
/// consumer flushes (`render_batch`) use, and the shape an
/// inter-broker hop to a remote shard would take. The batch shares
/// each payload by `Arc` and every QName in the wrapped-notification
/// vocabulary is pre-seeded in the interner, so the encode must stay
/// on the pointer-equality fast path — a budget breach here means the
/// batch encode started re-interning (or deep-cloning) per message.
/// Measured ~350 allocs/op; the budget leaves ~15% headroom — tight
/// on purpose, since the in-process federation links hand batches
/// over structurally and never run this encode.
const FEDERATION_ENCODE_ALLOC_BUDGET: f64 = 400.0;

fn bench_codec(c: &mut Criterion) {
    if wsm_bench::quick_mode() {
        // CI smoke: skip the Criterion sweeps, still emit the
        // machine-readable report and enforce the allocation budget.
        write_machine_readable();
        return;
    }
    let mut group = c.benchmark_group("codec");
    group.sample_size(30);
    let consumer = EndpointReference::new("http://consumer/sink");

    for v in [WseVersion::Jan2004, WseVersion::Aug2004] {
        let codec = WseCodec::new(v);
        let req =
            SubscribeRequest::push(consumer.clone()).with_filter(Filter::xpath("/event[@sev>3]"));
        group.bench_function(
            format!(
                "subscribe_roundtrip_{}",
                SpecDialect::Wse(v).label().replace([' ', '/'], "_")
            ),
            |b| {
                b.iter(|| {
                    let env = codec.subscribe("http://broker", &req);
                    let xml = env.to_xml();
                    let back = Envelope::from_xml(&xml).unwrap();
                    black_box(codec.parse_subscribe(&back).unwrap())
                })
            },
        );
    }

    for v in [WsnVersion::V1_0, WsnVersion::V1_3] {
        let codec = WsnCodec::new(v);
        let req = WsnSubscribeRequest::new(consumer.clone())
            .with_filter(WsnFilter::topic("jobs/status"))
            .with_filter(WsnFilter::content("/event[@sev>3]"));
        group.bench_function(
            format!(
                "subscribe_roundtrip_{}",
                SpecDialect::Wsn(v).label().replace([' ', '/'], "_")
            ),
            |b| {
                b.iter(|| {
                    let env = codec.subscribe("http://broker", &req);
                    let xml = env.to_xml();
                    let back = Envelope::from_xml(&xml).unwrap();
                    black_box(codec.parse_subscribe(&back).unwrap())
                })
            },
        );
    }

    // Notification encode: raw (WSE) vs wrapped Notify (WSN).
    let payload = make_event(7);
    let wse = WseCodec::new(WseVersion::Aug2004);
    group.bench_function("notification_encode_wse_raw", |b| {
        b.iter(|| black_box(wse.notification(&consumer, &payload).to_xml()))
    });
    let wsn = WsnCodec::new(WsnVersion::V1_3);
    let msg = NotificationMessage {
        topic: wsm_topics::TopicPath::parse("jobs/status"),
        producer: Some(EndpointReference::new("http://broker")),
        subscription: Some(consumer.clone()),
        message: payload.clone(),
    };
    group.bench_function("notification_encode_wsn_notify", |b| {
        b.iter(|| black_box(wsn.notify(&consumer, std::slice::from_ref(&msg)).to_xml()))
    });

    // Parse side.
    let wse_xml = wse.notification(&consumer, &payload).to_xml();
    let wsn_xml = wsn.notify(&consumer, &[msg]).to_xml();
    group.bench_function("notification_parse_wse_raw", |b| {
        b.iter(|| black_box(Envelope::from_xml(&wse_xml).unwrap()))
    });
    group.bench_function("notification_parse_wsn_notify", |b| {
        b.iter(|| {
            let env = Envelope::from_xml(&wsn_xml).unwrap();
            black_box(wsn.parse_notify(&env).unwrap())
        })
    });

    group.finish();
    write_machine_readable();
}

/// One hot-path workload's measurements for `BENCH_codec.json`.
struct CodecSample {
    name: &'static str,
    alloc: AllocSample,
    ns_per_op: f64,
}

fn sample(name: &'static str, iters: u64, mut f: impl FnMut()) -> CodecSample {
    let alloc = measure_allocs(iters, &mut f);
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let ns_per_op = start.elapsed().as_nanos() as f64 / iters as f64;
    CodecSample {
        name,
        alloc,
        ns_per_op,
    }
}

/// Emit `BENCH_codec.json`: allocs/op, bytes/op and ns/op for the
/// codec hot path, and enforce the mediated-publish allocation budget.
fn write_machine_readable() {
    let iters: u64 = if wsm_bench::quick_mode() { 40 } else { 400 };
    let consumer = EndpointReference::new("http://consumer/sink");
    let payload = make_event(7);
    let wse = WseCodec::new(WseVersion::Aug2004);
    let wsn = WsnCodec::new(WsnVersion::V1_3);

    let mut samples = Vec::new();

    // Parse: wire bytes -> envelope tree (the WSN Notify shape, the
    // richest of the four dialects).
    let wsn_xml = wsn
        .notify(
            &consumer,
            &[NotificationMessage {
                topic: wsm_topics::TopicPath::parse("jobs/status"),
                producer: Some(EndpointReference::new("http://broker")),
                subscription: Some(consumer.clone()),
                message: payload.clone(),
            }],
        )
        .to_xml();
    samples.push(sample("parse", iters, || {
        black_box(Envelope::from_xml(&wsn_xml).unwrap());
    }));

    // Render: event element -> dialect envelope (build only).
    samples.push(sample("render", iters, || {
        black_box(wse.notification(&consumer, &payload));
    }));

    // Serialize: envelope -> wire bytes, through the pooled buffer.
    let env = wse.notification(&consumer, &payload);
    samples.push(sample("serialize", iters, || {
        black_box(env.to_xml());
    }));

    // One batched `Notify` encode — 16 messages sharing their payload
    // subtrees by `Arc`, the shape a wire hop to a remote shard (and a
    // wrapped-mode consumer flush) serializes.
    let batch: Vec<SharedNotificationMessage> = (0..16u64)
        .map(|i| {
            SharedNotificationMessage::new(
                wsm_topics::TopicPath::parse(&format!("t{}/readings", i % 4)),
                Some(EndpointReference::new("http://fed")),
                SharedElement::new(make_event(i)),
            )
        })
        .collect();
    let shard = EndpointReference::new("http://fed/shard-0");
    samples.push(sample("federation_encode_16", iters, || {
        black_box(wsn.notify_shared(&shard, &batch).to_xml());
    }));

    // The headline figure: one mediated publication fanning out to 256
    // subscribers through the broker pipeline (match, render, deliver).
    let (_net, broker) = broker_with_subscribers(256, "jobs/status");
    let mut seq = 0u64;
    let mediated = sample("mediated_publish_256", iters.min(60), || {
        seq += 1;
        broker.publish_on("jobs/status", &make_event(seq));
    });

    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_codec.json");
    let mut out = String::from("{\n  \"bench\": \"codec\",\n  \"alloc\": {\n");
    for s in samples.iter().chain([&mediated]) {
        out.push_str(&format!(
            "    \"{}\": {{\"allocs_per_op\": {:.1}, \"bytes_per_op\": {:.1}, \"ns_per_op\": {:.0}}},\n",
            s.name, s.alloc.allocs_per_op, s.alloc.bytes_per_op, s.ns_per_op
        ));
    }
    out.truncate(out.len() - 2);
    out.push_str(&format!(
        "\n  }},\n  \"budgets\": {{\"mediated_publish_256_allocs_per_op\": {MEDIATED_PUBLISH_ALLOC_BUDGET:.1}, \"federation_encode_16_allocs_per_op\": {FEDERATION_ENCODE_ALLOC_BUDGET:.1}}}\n}}\n"
    ));
    let mut file = std::fs::File::create(&path).expect("create BENCH_codec.json");
    file.write_all(out.as_bytes())
        .expect("write BENCH_codec.json");
    println!("wrote {}", path.display());
    for s in samples.iter().chain([&mediated]) {
        println!(
            "  {:<22} {:>9.1} allocs/op {:>11.1} bytes/op {:>9.0} ns/op",
            s.name, s.alloc.allocs_per_op, s.alloc.bytes_per_op, s.ns_per_op
        );
    }

    let fed_encode = samples
        .iter()
        .find(|s| s.name == "federation_encode_16")
        .expect("federation sample measured");
    assert!(
        fed_encode.alloc.allocs_per_op <= FEDERATION_ENCODE_ALLOC_BUDGET,
        "allocation budget exceeded: the 16-message federation batch encode took \
         {:.1} allocs/op (budget {FEDERATION_ENCODE_ALLOC_BUDGET:.1}) — the cross-shard \
         path fell off the interner's ptr-eq fast path or began deep-cloning payloads",
        fed_encode.alloc.allocs_per_op,
    );
    assert!(
        mediated.alloc.allocs_per_op <= MEDIATED_PUBLISH_ALLOC_BUDGET,
        "allocation budget exceeded: mediated publish to 256 subscribers took \
         {:.1} allocs/op (budget {MEDIATED_PUBLISH_ALLOC_BUDGET:.1}) — a deep clone or \
         per-subscriber serialization crept back into the fan-out path",
        mediated.alloc.allocs_per_op,
    );
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
