#![warn(missing_docs)]
//! # wsm-eventing — WS-Eventing, both released versions
//!
//! The Microsoft-led half of the specification competition the paper
//! studies. Two released versions are implemented, because Table 1 of
//! the paper is precisely a comparison of how the versions evolved:
//!
//! * **January 2004** (`http://schemas.xmlsoap.org/ws/2004/01/eventing`,
//!   WS-Addressing 2003/03): the event source *is* the subscription
//!   manager, subscription ids travel as a separate `<wse:Id>` element,
//!   push delivery only, no `GetStatus`.
//! * **August 2004** (`http://schemas.xmlsoap.org/ws/2004/08/eventing`,
//!   WS-Addressing 2004/08): separate subscription-manager entity,
//!   subscription ids become reference parameters in the manager's EPR,
//!   `GetStatus` added, pull and wrapped delivery modes added — each of
//!   these convergences toward WS-Notification is a highlighted Table 1
//!   cell.
//!
//! Entities (paper Fig. 1): **Subscriber** → (Subscribe/Renew/
//! GetStatus/Unsubscribe) → **Event Source** / **Subscription Manager**;
//! **Event Source** → (notifications, SubscriptionEnd) → **Event Sink**.
//!
//! ```
//! use wsm_eventing::{EventSource, EventSink, Subscriber, WseVersion, SubscribeRequest};
//! use wsm_transport::Network;
//! use wsm_xml::Element;
//!
//! let net = Network::new();
//! let source = EventSource::start(&net, "http://src.example.org/events", WseVersion::Aug2004);
//! let sink = EventSink::start(&net, "http://sink.example.org/sink", WseVersion::Aug2004);
//!
//! let subscriber = Subscriber::new(&net, WseVersion::Aug2004);
//! let subscription = subscriber
//!     .subscribe("http://src.example.org/events", SubscribeRequest::push(sink.epr()))
//!     .unwrap();
//!
//! source.publish(&Element::local("blizzard").with_text("now"));
//! assert_eq!(sink.received().len(), 1);
//! subscriber.unsubscribe(&subscription).unwrap();
//! source.publish(&Element::local("ignored"));
//! assert_eq!(sink.received().len(), 1);
//! ```

pub mod messages;
pub mod model;
pub mod services;
pub mod store;
pub mod version;

pub use messages::WseCodec;
pub use model::{DeliveryMode, EndStatus, Expires, Filter, SubscribeRequest, SubscriptionHandle};
pub use services::{EventSink, EventSource, PublishStats, Subscriber};
pub use store::{Delivery, Subscription, SubscriptionStore};
pub use version::WseVersion;

/// The XPath 1.0 filter dialect URI (the default dialect in WS-Eventing).
pub const XPATH_DIALECT: &str = "http://www.w3.org/TR/1999/REC-xpath-19991116";
