#![warn(missing_docs)]
//! # wsm-messenger — the WS-Messenger mediation broker
//!
//! The paper's system contribution (§VII): "a scalable, reliable and
//! efficient WS-based message broker ... It implements both WS-Eventing
//! and WS-Notification specifications and can support both
//! specifications at the same time through a mediation approach."
//!
//! The broker here reproduces each capability §VII claims:
//!
//! * **Dual-specification endpoint.** One broker URI accepts WS-Eventing
//!   *and* WS-Notification traffic. "WS-Messenger automatically detects
//!   which specification the incoming SOAP messages use and processes
//!   them accordingly" — [`detect::SpecDialect::detect`] sniffs the
//!   body/header namespaces, distinguishing all four spec versions.
//! * **Response symmetry.** "Response messages follow the same
//!   specifications as request messages" — every handler answers with
//!   the codec of the detected dialect.
//! * **Consumer-native delivery.** "WS-Messenger makes sure that
//!   notification messages follow the expected specifications of the
//!   target event consumers. The specification type of a target event
//!   consumer is determined by the subscription request message type" —
//!   the registry tags each subscription with its dialect and
//!   [`render`] builds WSE-raw / WSE-wrapped / WSN-Notify / WSN-raw
//!   messages per consumer.
//! * **Pluggable pub/sub backend.** "WS-Messenger provides a generic
//!   interface that can use existing publish/subscribe systems as the
//!   underlying message systems" — [`backend::MessagingBackend`], with
//!   an in-memory implementation and an adapter over the `wsm-jms`
//!   provider.
//!
//! ```
//! use wsm_messenger::WsMessenger;
//! use wsm_transport::Network;
//! use wsm_eventing::{EventSink, Subscriber, SubscribeRequest, WseVersion};
//! use wsm_notification::{NotificationConsumer, WsnClient, WsnFilter, WsnSubscribeRequest, WsnVersion};
//! use wsm_xml::Element;
//!
//! let net = Network::new();
//! let broker = WsMessenger::start(&net, "http://broker");
//!
//! // A WS-Eventing consumer and a WS-Notification consumer, side by side.
//! let wse_sink = EventSink::start(&net, "http://sink-wse", WseVersion::Aug2004);
//! Subscriber::new(&net, WseVersion::Aug2004)
//!     .subscribe(broker.uri(), SubscribeRequest::push(wse_sink.epr())).unwrap();
//! let wsn_consumer = NotificationConsumer::start(&net, "http://sink-wsn", WsnVersion::V1_3);
//! WsnClient::new(&net, WsnVersion::V1_3)
//!     .subscribe(broker.uri(), &WsnSubscribeRequest::new(wsn_consumer.epr())
//!         .with_filter(WsnFilter::topic("storms"))).unwrap();
//!
//! // One publication reaches both, each in its own dialect.
//! broker.publish_on("storms", &Element::local("alert"));
//! assert_eq!(wse_sink.received().len(), 1);
//! assert_eq!(wsn_consumer.notifications().len(), 1);
//! ```

pub mod backend;
pub mod broker;
mod brokered;
mod control;
pub mod delivery;
pub mod detect;
pub mod event;
pub mod federation;
pub mod obs;
mod outbox;
pub mod registry;
pub mod reliability;
pub mod render;

pub use backend::{InMemoryBackend, JmsBackend, MessagingBackend};
pub use broker::{MediationStats, WsMessenger};
pub use control::OpKind;
pub use delivery::{FailKind, FanOutReport, PushJob, ResolvedMark, StatsDelta};
pub use detect::{DialectProfile, NotificationShape, SpecDialect};
pub use event::InternalEvent;
pub use federation::{shard_of_root, BatchPolicy, FederatedMessenger};
pub use obs::ObsSnapshot;
pub use registry::{
    BrokerDeliveryMode, BrokerSubscription, Registry, SubscriptionStatus, UnifiedFilters,
};
pub use reliability::{
    BreakerConfig, BreakerState, CircuitBreaker, DeadLetter, FaultTolerance, PumpReport,
};
pub use render::{render_notification, render_notification_cached, RenderCache};
pub use wsm_obs::{
    reconstruct, DeliveryStory, HistogramStats, Outcome, SpanRecord, Stage, TraceContext,
};
