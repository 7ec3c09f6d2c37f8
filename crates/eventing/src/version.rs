//! The two released WS-Eventing versions and their capability deltas.

use wsm_addressing::WsaVersion;

/// A released version of the WS-Eventing specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WseVersion {
    /// The January 7, 2004 release (Microsoft-led).
    Jan2004,
    /// The August 2004 release (joined by IBM, Sun, CA — the version
    /// the paper's §V comparison uses).
    Aug2004,
}

impl WseVersion {
    /// The specification namespace.
    pub const fn ns(self) -> &'static str {
        match self {
            WseVersion::Jan2004 => "http://schemas.xmlsoap.org/ws/2004/01/eventing",
            WseVersion::Aug2004 => "http://schemas.xmlsoap.org/ws/2004/08/eventing",
        }
    }

    /// The WS-Addressing version this release binds to (Table 1's last
    /// row: 2003/03 for 01/2004, 2004/08 for 08/2004).
    pub const fn wsa(self) -> WsaVersion {
        match self {
            WseVersion::Jan2004 => WsaVersion::V200303,
            WseVersion::Aug2004 => WsaVersion::V200408,
        }
    }

    /// Action URI for an operation name, e.g. `Subscribe`.
    pub fn action(self, op: &str) -> String {
        format!("{}/{op}", self.ns())
    }

    /// Delivery-mode URI.
    pub fn delivery_mode_uri(self, mode: &str) -> String {
        format!("{}/DeliveryModes/{mode}", self.ns())
    }

    // ---- capability deltas (Table 1 cells) ---------------------------
    // The ones the codec, the services, the WSDL generator or the
    // broker's `SpecDialect::supports` act on; the cells only Table 1
    // reads are fields of the broker's dialect profile.

    /// 08/2004 separated the subscription manager from the event source
    /// ("following WS-Notification's architecture").
    pub fn has_separate_subscription_manager(self) -> bool {
        self == WseVersion::Aug2004
    }

    /// 08/2004 added GetStatus (paper: "similar to
    /// getResourceProperties in WSRF").
    pub fn has_get_status(self) -> bool {
        self == WseVersion::Aug2004
    }

    /// 08/2004 returns the subscription id as a ReferenceParameter in
    /// the subscription manager's EPR; 01/2004 used a separate
    /// `<wse:Id>` element.
    pub fn id_in_reference_parameters(self) -> bool {
        self == WseVersion::Aug2004
    }

    /// 08/2004 added the pull delivery mode.
    pub fn supports_pull_delivery(self) -> bool {
        self == WseVersion::Aug2004
    }

    /// Both versions accept duration-based expirations.
    pub fn supports_duration_expiry(self) -> bool {
        true
    }

    /// Both versions define the XPath filter dialect and allow at most
    /// one filter.
    pub fn max_filters(self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespaces_and_actions() {
        assert_eq!(
            WseVersion::Aug2004.action("Subscribe"),
            "http://schemas.xmlsoap.org/ws/2004/08/eventing/Subscribe"
        );
        assert_ne!(WseVersion::Jan2004.ns(), WseVersion::Aug2004.ns());
    }

    #[test]
    fn wsa_bindings_match_table_1() {
        assert_eq!(WseVersion::Jan2004.wsa(), WsaVersion::V200303);
        assert_eq!(WseVersion::Aug2004.wsa(), WsaVersion::V200408);
    }

    #[test]
    fn capability_deltas_match_table_1() {
        let old = WseVersion::Jan2004;
        let new = WseVersion::Aug2004;
        assert!(
            !old.has_separate_subscription_manager() && new.has_separate_subscription_manager()
        );
        assert!(!old.has_get_status() && new.has_get_status());
        assert!(!old.id_in_reference_parameters() && new.id_in_reference_parameters());
        assert!(!old.supports_pull_delivery() && new.supports_pull_delivery());
        assert!(old.supports_duration_expiry() && new.supports_duration_expiry());
        assert_eq!(old.max_filters(), 1);
    }

    #[test]
    fn delivery_mode_uris() {
        assert_eq!(
            WseVersion::Aug2004.delivery_mode_uri("Push"),
            "http://schemas.xmlsoap.org/ws/2004/08/eventing/DeliveryModes/Push"
        );
    }
}
