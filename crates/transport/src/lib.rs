#![warn(missing_docs)]
//! # wsm-transport — simulated SOAP-over-HTTP network
//!
//! The paper's systems ran over real HTTP between real hosts. The spec
//! semantics being compared, however, depend only on (a) who can open a
//! connection to whom, (b) whether a message arrives, and (c) message
//! ordering — so this crate substitutes an in-process network that
//! models exactly those three things and records everything for the
//! experiment harnesses:
//!
//! * **URI-addressed endpoints** hosting [`SoapHandler`]s (request /
//!   response and one-way sends, like HTTP POST with or without a
//!   response body);
//! * **firewalled endpoints** that refuse inbound connections — the
//!   scenario the paper gives for pull delivery ("delivering messages
//!   to consumers behind firewalls");
//! * **fault injection** expressed as data (a seeded [`FaultPlan`]:
//!   one-shot drops and poison SOAP faults, probabilistic loss,
//!   flapping down-windows, latency spikes) and a fixed per-hop
//!   simulated latency, driving a **virtual clock** that subscription
//!   expiration and fault schedules are measured against;
//! * a **trace** of delivery attempts, which the tests and the
//!   EXPERIMENTS harness read back. It is a `wsm_obs::Ring`, the one
//!   bounded log type the broker keeps its spans in: the last 8 192
//!   attempts, evictions counted in the `net_trace_dropped` gauge, and
//!   [`Network::trace_jsonl`] written by `wsm_obs::export::jsonl`, as
//!   the span export is. The ring stores compact [`TraceRecord`]s
//!   whose strings are shared handles, and readers get those same
//!   records: [`Network::trace`] clones them (reference bumps) and the
//!   export writes each one's JSON straight from it.
//!
//! A send that is delivered with no fault configured allocates nothing
//! and takes no exclusive lock but the trace ring's: it resolves its
//! endpoint under the endpoint table's read lock (there is no route
//! cache to keep coherent with registrations), and the fault plan is
//! consulted (and locked) only while it names an endpoint. See the
//! [`network`] module docs.
//!
//! ```
//! use wsm_transport::{Network, SoapHandler};
//! use wsm_soap::{Envelope, SoapVersion};
//! use wsm_xml::Element;
//! use std::sync::Arc;
//!
//! struct Echo;
//! impl SoapHandler for Echo {
//!     fn handle(&self, request: Envelope) -> Result<Option<Envelope>, wsm_soap::Fault> {
//!         Ok(Some(request))
//!     }
//! }
//!
//! let net = Network::new();
//! net.register("http://svc.example.org/echo", Arc::new(Echo));
//! let req = Envelope::new(SoapVersion::V12).with_body(Element::local("Ping"));
//! let resp = net.request("http://svc.example.org/echo", req.clone()).unwrap();
//! assert_eq!(resp, req);
//! ```

pub mod clock;
pub mod faults;
pub mod network;
mod obs;
pub mod trace;

pub use clock::SimClock;
pub use faults::{EndpointFaults, FaultPlan, Flap, Injected, Injection};
pub use network::{AttemptClass, EndpointOptions, Flight, Landed, Network};
pub use network::{SoapHandler, TransportError};
pub use trace::{DeliveryOutcome, TraceRecord};
