#![warn(missing_docs)]
//! # wsm-addressing — WS-Addressing, all three relevant versions
//!
//! The specifications the paper compares bind to *different* versions of
//! WS-Addressing, and the paper calls this out twice: Table 1's last row
//! records the WSA version of each spec release, and §V.4 lists "versions
//! difference of underlying specifications" as a whole category of
//! message-format incompatibility. Reproducing that requires actually
//! having the three versions:
//!
//! | WSA version | namespace | used by |
//! |---|---|---|
//! | 2003/03 | `http://schemas.xmlsoap.org/ws/2003/03/addressing` | WS-Eventing 01/2004, WS-Notification 1.0 |
//! | 2004/08 | `http://schemas.xmlsoap.org/ws/2004/08/addressing` | WS-Eventing 08/2004 |
//! | 2005/08 | `http://www.w3.org/2005/08/addressing` (W3C) | WS-Notification 1.3 |
//!
//! The versions also differ structurally: 2003/03 EPRs carry
//! `ReferenceProperties`, 2004/08 carries both `ReferenceProperties` and
//! `ReferenceParameters`, and 2005/08 has only `ReferenceParameters`
//! plus `Metadata` — which is exactly the `subscriptionId` enclosing
//! element difference the paper highlights (§V.4 category 1).

pub mod epr;
pub mod headers;

pub use epr::EndpointReference;
pub use headers::{raw_action, MessageHeaders};

/// The WS-Addressing specification versions in play.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WsaVersion {
    /// March 2003 submission.
    V200303,
    /// August 2004 submission.
    V200408,
    /// August 2005 W3C Recommendation.
    V200508,
}

impl WsaVersion {
    /// The namespace URI of this version.
    pub const fn ns(self) -> &'static str {
        match self {
            WsaVersion::V200303 => "http://schemas.xmlsoap.org/ws/2003/03/addressing",
            WsaVersion::V200408 => "http://schemas.xmlsoap.org/ws/2004/08/addressing",
            WsaVersion::V200508 => "http://www.w3.org/2005/08/addressing",
        }
    }

    /// The anonymous address: "reply on the same connection".
    pub fn anonymous(self) -> &'static str {
        match self {
            WsaVersion::V200303 => {
                "http://schemas.xmlsoap.org/ws/2003/03/addressing/role/anonymous"
            }
            WsaVersion::V200408 => {
                "http://schemas.xmlsoap.org/ws/2004/08/addressing/role/anonymous"
            }
            WsaVersion::V200508 => "http://www.w3.org/2005/08/addressing/anonymous",
        }
    }

    /// Whether EPRs in this version carry a `ReferenceProperties` child.
    pub fn has_reference_properties(self) -> bool {
        !matches!(self, WsaVersion::V200508)
    }

    /// Whether EPRs in this version carry a `ReferenceParameters` child.
    pub fn has_reference_parameters(self) -> bool {
        !matches!(self, WsaVersion::V200303)
    }

    /// Short label used in tables (matches the paper's "2003/03" style).
    pub fn label(self) -> &'static str {
        match self {
            WsaVersion::V200303 => "2003/03",
            WsaVersion::V200408 => "2004/08",
            WsaVersion::V200508 => "2005/08",
        }
    }

    /// Detect the version from a namespace URI.
    pub fn from_ns(ns: &str) -> Option<Self> {
        [
            WsaVersion::V200303,
            WsaVersion::V200408,
            WsaVersion::V200508,
        ]
        .into_iter()
        .find(|v| v.ns() == ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespaces_distinct() {
        let all = [
            WsaVersion::V200303,
            WsaVersion::V200408,
            WsaVersion::V200508,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.ns(), b.ns());
                assert_ne!(a.anonymous(), b.anonymous());
            }
        }
    }

    #[test]
    fn structural_capabilities_match_the_specs() {
        assert!(WsaVersion::V200303.has_reference_properties());
        assert!(!WsaVersion::V200303.has_reference_parameters());
        assert!(WsaVersion::V200408.has_reference_properties());
        assert!(WsaVersion::V200408.has_reference_parameters());
        assert!(!WsaVersion::V200508.has_reference_properties());
        assert!(WsaVersion::V200508.has_reference_parameters());
    }

    #[test]
    fn detection() {
        for v in [
            WsaVersion::V200303,
            WsaVersion::V200408,
            WsaVersion::V200508,
        ] {
            assert_eq!(WsaVersion::from_ns(v.ns()), Some(v));
        }
        assert_eq!(WsaVersion::from_ns("urn:other"), None);
    }

    #[test]
    fn labels_match_paper_table_style() {
        assert_eq!(WsaVersion::V200303.label(), "2003/03");
        assert_eq!(WsaVersion::V200508.label(), "2005/08");
    }
}
