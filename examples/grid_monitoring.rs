//! Grid job monitoring — the scenario the paper's introduction
//! motivates: "event notifications are disseminated for various
//! purposes in Grid computing applications, such as logging, monitoring
//! and auditing."
//!
//! A workflow engine publishes job-status events through WS-Messenger.
//! Three consumers watch them:
//!
//! * a *dashboard* (WS-Notification 1.3) subscribed to the whole
//!   `jobs` topic subtree,
//! * an *alerting service* (WS-Eventing) with an XPath content filter
//!   that only wants failures,
//! * a *laptop behind a firewall* that cannot accept inbound
//!   connections and therefore pulls — the exact scenario the paper
//!   gives for pull delivery. It does so twice, once per family: in
//!   WS-Eventing it subscribes in pull mode; in WS-Notification 1.3 it
//!   asks the broker for a PullPoint, subscribes with the PullPoint as
//!   its consumer, and drains it with `GetMessages`.
//!
//! Run with `cargo run --example grid_monitoring`.

use ws_messenger_suite::eventing::{
    DeliveryMode, EventSink, Expires, Filter, SubscribeRequest, Subscriber, WseVersion,
};
use ws_messenger_suite::messenger::WsMessenger;
use ws_messenger_suite::notification::{
    NotificationConsumer, PullPoint, WsnClient, WsnCodec, WsnFilter, WsnSubscribeRequest,
    WsnVersion,
};
use ws_messenger_suite::transport::Network;
use ws_messenger_suite::xml::Element;

fn job_event(job: &str, state: &str, sev: u32) -> Element {
    Element::local("jobStatus")
        .with_attr("job", job)
        .with_attr("sev", sev.to_string())
        .with_child(Element::local("state").with_text(state))
}

fn main() {
    let net = Network::new();
    let broker = WsMessenger::start(&net, "http://grid.example.org/messenger");

    // Dashboard: everything under jobs/.
    let dashboard = NotificationConsumer::start(&net, "http://portal/dashboard", WsnVersion::V1_3);
    let wsn = WsnClient::new(&net, WsnVersion::V1_3);
    wsn.subscribe(
        broker.uri(),
        &WsnSubscribeRequest::new(dashboard.epr()).with_filter(WsnFilter::topic("jobs")),
    )
    .unwrap();

    // Alerting: only failures, via an XPath content filter, with a
    // one-hour lease it must renew.
    let alerts = EventSink::start(&net, "http://ops/alerts", WseVersion::Aug2004);
    let wse = Subscriber::new(&net, WseVersion::Aug2004);
    let alert_handle = wse
        .subscribe(
            broker.uri(),
            SubscribeRequest::push(alerts.epr())
                .with_filter(Filter::xpath("/jobStatus[state = 'FAILED']"))
                .with_expires(Expires::Duration(3_600_000)),
        )
        .unwrap();

    // Firewalled laptop: pull mode.
    let laptop = EventSink::start_firewalled(&net, "http://laptop.home/sink", WseVersion::Aug2004);
    let laptop_handle = wse
        .subscribe(
            broker.uri(),
            SubscribeRequest::push(laptop.epr()).with_mode(DeliveryMode::Pull),
        )
        .unwrap();

    // The same laptop in WS-Notification 1.3: a PullPoint from the
    // broker stands in for it as the consumer.
    let codec = WsnCodec::new(WsnVersion::V1_3);
    let created = net
        .request(broker.uri(), codec.create_pull_point(broker.uri()))
        .unwrap();
    let pull_point = codec.parse_create_pull_point_response(&created).unwrap();
    wsn.subscribe(
        broker.uri(),
        &WsnSubscribeRequest::new(pull_point.clone()).with_filter(WsnFilter::topic("jobs")),
    )
    .unwrap();

    println!(
        "{} subscriptions registered at the broker",
        broker.subscription_count()
    );

    // The workflow engine runs a few jobs.
    broker.publish_on("jobs/status", &job_event("bwa-align-1", "RUNNING", 1));
    broker.publish_on("jobs/status", &job_event("bwa-align-1", "DONE", 1));
    broker.publish_on("jobs/errors", &job_event("varcall-2", "FAILED", 5));
    broker.publish_on("jobs/status", &job_event("varcall-2", "RETRYING", 3));

    // The dashboard saw everything under jobs/.
    println!(
        "dashboard received {} notifications:",
        dashboard.notifications().len()
    );
    for m in dashboard.notifications() {
        println!(
            "  [{}] job {} -> {}",
            m.topic.as_ref().map(|t| t.to_string()).unwrap_or_default(),
            m.message.attr("job").unwrap_or("?"),
            m.message
                .child("state")
                .map(|s| s.text())
                .unwrap_or_default()
        );
    }
    assert_eq!(dashboard.notifications().len(), 4);

    // Alerting only saw the failure.
    let alarm = alerts.received();
    println!(
        "alerting service received {} event(s): job {}",
        alarm.len(),
        alarm[0].attr("job").unwrap()
    );
    assert_eq!(alarm.len(), 1);
    assert_eq!(alarm[0].attr("job"), Some("varcall-2"));

    // The laptop polls from behind its firewall, in both families.
    let pulled = wse.pull(&laptop_handle, 10).unwrap();
    let drained = PullPoint::get_messages_remote(&net, WsnVersion::V1_3, &pull_point, 10).unwrap();
    println!("laptop pulls: wse={} wsn={}", pulled.len(), drained.len());
    assert_eq!(pulled.len(), 4);
    assert_eq!(drained.len(), 4);

    // Time passes; the alerting lease is renewed before it expires.
    net.clock().advance_ms(3_000_000);
    wse.renew(&alert_handle, Some(Expires::Duration(3_600_000)))
        .unwrap();
    net.clock().advance_ms(1_000_000); // past the original expiry
    broker.publish_on("jobs/errors", &job_event("bwa-align-9", "FAILED", 5));
    assert_eq!(alerts.received().len(), 2, "renewed lease still delivering");
    println!(
        "after renewal, alerting service has {} events",
        alerts.received().len()
    );

    // The ops team checks the last state of the errors topic on demand.
    let topic = ws_messenger_suite::topics::TopicExpression::concrete("jobs/errors").unwrap();
    let last = wsn
        .get_current_message(broker.uri(), &topic)
        .unwrap()
        .unwrap();
    println!(
        "GetCurrentMessage(jobs/errors) -> job {}",
        last.attr("job").unwrap()
    );
    assert_eq!(last.attr("job"), Some("bwa-align-9"));
    println!("ok");
}
