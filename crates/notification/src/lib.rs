#![warn(missing_docs)]
//! # wsm-notification — the WS-Notification family
//!
//! The IBM/Globus-led half of the specification competition the paper
//! studies: **WS-BaseNotification** (producer/consumer interactions),
//! the message formats of **WS-BrokeredNotification** (publisher
//! registration, demand-based publishing, PullPoint creation; the
//! broker that serves them is WS-Messenger, in `wsm-messenger`) and —
//! in the sibling `wsm-topics` crate — **WS-Topics**.
//!
//! Two base-notification versions are implemented, the two columns of
//! the paper's Table 1:
//!
//! * **1.0** (March 2004; 1.2 is "very similar" per the paper and is
//!   treated as the same profile): bound to WS-Addressing 2003/03,
//!   **requires WSRF** — a subscription *is* a WS-Resource, so renewal
//!   is `SetTerminationTime`, unsubscribe is `Destroy`, status is
//!   `GetResourceProperty`, and subscription-end notices are WSRF
//!   `TerminationNotification`s. A topic is required in every
//!   subscribe; expiration is absolute `xsd:dateTime` only.
//! * **1.3** (Public Review Draft 2, 2/2006): WSRF optional — native
//!   `Renew`/`Unsubscribe` operations; WS-Addressing 2005/08; `Filter`
//!   element with three filter kinds (TopicExpression,
//!   ProducerProperties, MessageContent/XPath); duration *or* absolute
//!   expiration; PullPoints; topics optional.
//!
//! Entities (paper Fig. 2): **Subscriber** → **NotificationProducer**
//! / **SubscriptionManager**; **Publisher** → producer;
//! **NotificationProducer** → (Notify) → **NotificationConsumer**.
//! WS-BrokeredNotification adds a broker which is simultaneously a
//! producer and a consumer: WS-Messenger (`wsm_messenger::WsMessenger`)
//! plays that part for both spec families.

pub mod consumer;
pub mod messages;
pub mod model;
pub mod producer;
pub mod pullpoint;
pub mod store;
pub mod version;

pub use consumer::NotificationConsumer;
pub use messages::{SharedNotificationMessage, WsnCodec, SUBSCRIPTION_ID_LOCAL};
pub use model::{NotificationMessage, Termination, WsnFilter, WsnSubscribeRequest};
pub use producer::{NotificationProducer, WsnClient, WsnSubscriptionHandle};
pub use pullpoint::PullPoint;
pub use store::{WsnSubscription, WsnSubscriptionStore};
pub use version::WsnVersion;

/// XPath 1.0 dialect URI used by MessageContent/ProducerProperties
/// filters (same URI as WS-Eventing's default dialect).
pub const XPATH_DIALECT: &str = "http://www.w3.org/TR/1999/REC-xpath-19991116";
