//! WS-BaseNotification versions and their capability deltas.

use wsm_addressing::WsaVersion;

/// A WS-BaseNotification version profile.
///
/// The paper compares 1.0 and 1.3 and skips 1.2 because "it is very
/// similar to version 1.0"; we follow suit — [`WsnVersion::V1_0`]
/// stands for the 1.0/1.2 profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(non_camel_case_types)]
pub enum WsnVersion {
    /// WS-BaseNotification 1.0 (March 2004) / 1.2 (OASIS submission).
    V1_0,
    /// WS-BaseNotification 1.3 (Public Review Draft 2, February 2006).
    V1_3,
}

impl WsnVersion {
    /// The base-notification namespace.
    pub const fn ns(self) -> &'static str {
        match self {
            WsnVersion::V1_0 => {
                "http://docs.oasis-open.org/wsn/2004/06/wsn-WS-BaseNotification-1.2-draft-01.xsd"
            }
            WsnVersion::V1_3 => "http://docs.oasis-open.org/wsn/b-2",
        }
    }

    /// The brokered-notification namespace.
    pub const fn brokered_ns(self) -> &'static str {
        match self {
            WsnVersion::V1_0 => {
                "http://docs.oasis-open.org/wsn/2004/06/wsn-WS-BrokeredNotification-1.2-draft-01.xsd"
            }
            WsnVersion::V1_3 => "http://docs.oasis-open.org/wsn/br-2",
        }
    }

    /// The WS-Addressing version this release binds to (Table 1:
    /// 2003/03 for 1.0, 2005/08 for 1.3).
    pub const fn wsa(self) -> WsaVersion {
        match self {
            WsnVersion::V1_0 => WsaVersion::V200303,
            WsnVersion::V1_3 => WsaVersion::V200508,
        }
    }

    /// Action URI for an operation.
    pub fn action(self, op: &str) -> String {
        format!("{}/{op}", self.ns())
    }

    // ---- capability deltas (Table 1 cells) ---------------------------
    // The ones the codec, the services, the WSDL generator or the
    // broker's `SpecDialect::supports` act on; the cells only Table 1
    // reads are fields of the broker's dialect profile.

    /// 1.0 requires WSRF; 1.3 makes it optional by adding native
    /// `Renew`/`Unsubscribe`.
    pub fn requires_wsrf(self) -> bool {
        self == WsnVersion::V1_0
    }

    /// 1.0 requires a topic in every subscription; 1.3 does not.
    pub fn requires_topic(self) -> bool {
        self == WsnVersion::V1_0
    }

    /// 1.3 accepts durations for `InitialTerminationTime`; 1.0 only
    /// absolute times.
    pub fn supports_duration_expiry(self) -> bool {
        self == WsnVersion::V1_3
    }

    /// 1.3 defines the PullPoint interface.
    pub fn has_pull_point(self) -> bool {
        self == WsnVersion::V1_3
    }

    /// Native Renew/Unsubscribe operations (1.3); in 1.0 these are WSRF
    /// `SetTerminationTime`/`Destroy`.
    pub fn has_native_renew_unsubscribe(self) -> bool {
        self == WsnVersion::V1_3
    }

    /// Both versions define GetCurrentMessage.
    pub fn has_get_current_message(self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wsa_bindings_match_table_1() {
        assert_eq!(WsnVersion::V1_0.wsa(), WsaVersion::V200303);
        assert_eq!(WsnVersion::V1_3.wsa(), WsaVersion::V200508);
    }

    #[test]
    fn capability_deltas_match_table_1() {
        let old = WsnVersion::V1_0;
        let new = WsnVersion::V1_3;
        assert!(old.requires_wsrf() && !new.requires_wsrf());
        assert!(old.requires_topic() && !new.requires_topic());
        assert!(!old.supports_duration_expiry() && new.supports_duration_expiry());
        assert!(!old.has_pull_point() && new.has_pull_point());
        assert!(!old.has_native_renew_unsubscribe() && new.has_native_renew_unsubscribe());
        assert!(old.has_get_current_message() && new.has_get_current_message());
    }

    #[test]
    fn namespaces_distinct() {
        assert_ne!(WsnVersion::V1_0.ns(), WsnVersion::V1_3.ns());
        assert_ne!(WsnVersion::V1_3.ns(), WsnVersion::V1_3.brokered_ns());
    }
}
