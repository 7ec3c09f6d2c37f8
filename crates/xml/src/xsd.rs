//! XML Schema `boolean`, `duration` and `dateTime` lexical forms.
//!
//! Both WS-Eventing and WS-Notification express subscription expiration
//! as either an `xsd:dateTime` (absolute) or an `xsd:duration`
//! (relative) — and *which* of the two a spec version accepts is a
//! Table 1 row in the paper. The engines run on a virtual millisecond
//! clock, so this module maps between epoch-milliseconds and the two
//! lexical forms.

/// Parse an `xsd:boolean`: `true` or `1`, `false` or `0`, with
/// surrounding whitespace collapsed; `None` for any other text.
pub fn parse_boolean(s: &str) -> Option<bool> {
    match s.trim() {
        "true" | "1" => Some(true),
        "false" | "0" => Some(false),
        _ => None,
    }
}

/// Format milliseconds as an `xsd:duration` (`PnDTnHnMnS`).
///
/// Always uses days/hours/minutes/seconds (never years/months, whose
/// length is calendar-dependent).
pub fn format_duration(ms: u64) -> String {
    let total_secs = ms / 1000;
    let millis = ms % 1000;
    let days = total_secs / 86_400;
    let hours = (total_secs % 86_400) / 3_600;
    let minutes = (total_secs % 3_600) / 60;
    let secs = total_secs % 60;
    let mut out = String::from("P");
    if days > 0 {
        out.push_str(&format!("{days}D"));
    }
    if hours > 0 || minutes > 0 || secs > 0 || millis > 0 || days == 0 {
        out.push('T');
        if hours > 0 {
            out.push_str(&format!("{hours}H"));
        }
        if minutes > 0 {
            out.push_str(&format!("{minutes}M"));
        }
        if millis > 0 {
            out.push_str(&format!("{secs}.{millis:03}S"));
        } else {
            out.push_str(&format!("{secs}S"));
        }
    }
    out
}

/// Parse an `xsd:duration` into milliseconds.
///
/// Years and months are accepted with the common 365-day / 30-day
/// approximations (the WS specs use durations for lease lengths, where
/// this is the conventional reading). Negative durations are rejected.
pub fn parse_duration(s: &str) -> Option<u64> {
    let s = s.trim();
    let rest = s.strip_prefix('P')?;
    if s.starts_with('-') || rest.is_empty() {
        return None;
    }
    let (date_part, time_part) = match rest.split_once('T') {
        Some((d, t)) => {
            if t.is_empty() {
                return None;
            }
            (d, Some(t))
        }
        None => (rest, None),
    };
    let mut ms: f64 = 0.0;
    let mut parse_fields = |part: &str, fields: &[(char, f64)]| -> Option<()> {
        let mut num = String::new();
        let mut field_idx = 0usize;
        for c in part.chars() {
            if c.is_ascii_digit() || c == '.' {
                num.push(c);
            } else {
                // Find the designator at or after the current position
                // (designators must appear in order).
                let pos = fields[field_idx..].iter().position(|(d, _)| *d == c)?;
                let mult = fields[field_idx + pos].1;
                field_idx += pos + 1;
                if num.is_empty() {
                    return None;
                }
                ms += num.parse::<f64>().ok()? * mult;
                num.clear();
            }
        }
        if num.is_empty() {
            Some(())
        } else {
            None // trailing digits without a designator
        }
    };
    const DAY: f64 = 86_400_000.0;
    parse_fields(
        date_part,
        &[
            ('Y', 365.0 * DAY),
            ('M', 30.0 * DAY),
            ('W', 7.0 * DAY),
            ('D', DAY),
        ],
    )?;
    if let Some(t) = time_part {
        parse_fields(t, &[('H', 3_600_000.0), ('M', 60_000.0), ('S', 1_000.0)])?;
    }
    if !ms.is_finite() || ms < 0.0 || ms > u64::MAX as f64 {
        return None;
    }
    Some(ms as u64)
}

/// Format epoch-milliseconds as an `xsd:dateTime` in UTC
/// (`YYYY-MM-DDThh:mm:ss[.fff]Z`), proleptic Gregorian.
pub fn format_datetime(epoch_ms: u64) -> String {
    let millis = epoch_ms % 1000;
    let secs = epoch_ms / 1000;
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let (h, m, s) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    let (year, month, day) = civil_from_days(days as i64);
    if millis > 0 {
        format!("{year:04}-{month:02}-{day:02}T{h:02}:{m:02}:{s:02}.{millis:03}Z")
    } else {
        format!("{year:04}-{month:02}-{day:02}T{h:02}:{m:02}:{s:02}Z")
    }
}

/// Parse an `xsd:dateTime` (UTC or offset-free) to epoch-milliseconds.
/// Dates before 1970 are rejected (the virtual clock starts at 0).
pub fn parse_datetime(s: &str) -> Option<u64> {
    let s = s.trim().trim_end_matches('Z');
    let (date, time) = s.split_once('T')?;
    let mut dp = date.split('-');
    let year: i64 = dp.next()?.parse().ok()?;
    let month: u32 = dp.next()?.parse().ok()?;
    let day: u32 = dp.next()?.parse().ok()?;
    if dp.next().is_some() || !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return None;
    }
    // Strip a numeric offset if present (treat as UTC; the specs use Z).
    let time = time.split(['+']).next()?;
    let mut tp = time.split(':');
    let h: u64 = tp.next()?.parse().ok()?;
    let m: u64 = tp.next()?.parse().ok()?;
    let sec_str = tp.next()?;
    if tp.next().is_some() || h > 23 || m > 59 {
        return None;
    }
    let (sec, millis) = match sec_str.split_once('.') {
        Some((s, f)) => {
            let frac = format!("{:0<3}", f.chars().take(3).collect::<String>());
            (s.parse::<u64>().ok()?, frac.parse::<u64>().ok()?)
        }
        None => (sec_str.parse::<u64>().ok()?, 0),
    };
    if sec > 60 {
        return None;
    }
    let days = days_from_civil(year, month, day)?;
    Some(((days * 86_400 + h * 3600 + m * 60 + sec) * 1000) + millis)
}

/// Days since 1970-01-01 → (year, month, day). Howard Hinnant's civil
/// calendar algorithm.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// (year, month, day) → days since 1970-01-01; `None` when before 1970.
fn days_from_civil(y: i64, m: u32, d: u32) -> Option<u64> {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u64;
    let mp = if m > 2 { m - 3 } else { m + 9 } as u64;
    let doy = (153 * mp + 2) / 5 + d as u64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    let days = era * 146_097 + doe as i64 - 719_468;
    if days < 0 {
        None
    } else {
        Some(days as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boolean_has_four_lexical_forms() {
        for (text, value) in [("true", true), ("1", true), ("false", false), ("0", false)] {
            assert_eq!(parse_boolean(text), Some(value), "{text}");
            assert_eq!(
                parse_boolean(&format!(" \n{text}\t")),
                Some(value),
                "{text}"
            );
        }
        for bad in ["", "TRUE", "yes", "01", "t", "1 0"] {
            assert_eq!(parse_boolean(bad), None, "`{bad}` should fail");
        }
    }

    #[test]
    fn duration_roundtrip() {
        for ms in [
            0u64,
            1,
            999,
            1000,
            61_000,
            3_600_000,
            90_061_500,
            86_400_000 * 40,
        ] {
            let s = format_duration(ms);
            assert_eq!(parse_duration(&s), Some(ms), "{s}");
        }
    }

    #[test]
    fn duration_formats() {
        assert_eq!(format_duration(0), "PT0S");
        assert_eq!(format_duration(60_000), "PT1M0S");
        assert_eq!(format_duration(3_661_000), "PT1H1M1S");
        assert_eq!(format_duration(86_400_000), "P1D");
        assert_eq!(format_duration(500), "PT0.500S");
    }

    #[test]
    fn duration_parsing_variants() {
        assert_eq!(parse_duration("PT60S"), Some(60_000));
        assert_eq!(parse_duration("PT5M"), Some(300_000));
        assert_eq!(parse_duration("P1DT1S"), Some(86_401_000));
        assert_eq!(parse_duration("P1Y"), Some(365 * 86_400_000));
        assert_eq!(parse_duration("P2M"), Some(60 * 86_400_000));
        assert_eq!(parse_duration("P1W"), Some(7 * 86_400_000));
        assert_eq!(parse_duration("PT0.25S"), Some(250));
    }

    #[test]
    fn duration_rejects_garbage() {
        for bad in [
            "", "P", "PT", "60S", "-P1D", "P1X", "PT1", "P1M2Y", "PT1M2H",
        ] {
            assert_eq!(parse_duration(bad), None, "`{bad}` should fail");
        }
    }

    #[test]
    fn datetime_epoch() {
        assert_eq!(format_datetime(0), "1970-01-01T00:00:00Z");
        assert_eq!(parse_datetime("1970-01-01T00:00:00Z"), Some(0));
    }

    #[test]
    fn datetime_roundtrip() {
        for ms in [
            0u64,
            1_000,
            86_400_000,
            1_234_567_890_123,
            1_700_000_000_000,
        ] {
            let s = format_datetime(ms);
            assert_eq!(parse_datetime(&s), Some(ms), "{s}");
        }
    }

    #[test]
    fn datetime_known_values() {
        // 2006-02-01: the month WS-BaseNotification 1.3 PR2 was current.
        let ms = parse_datetime("2006-02-01T00:00:00Z").unwrap();
        assert_eq!(format_datetime(ms), "2006-02-01T00:00:00Z");
        // Leap-year day.
        let leap = parse_datetime("2004-02-29T12:30:45Z").unwrap();
        assert_eq!(format_datetime(leap), "2004-02-29T12:30:45Z");
    }

    #[test]
    fn datetime_fractions() {
        let ms = parse_datetime("1970-01-01T00:00:00.250Z").unwrap();
        assert_eq!(ms, 250);
        assert_eq!(format_datetime(250), "1970-01-01T00:00:00.250Z");
    }

    #[test]
    fn datetime_rejects_garbage() {
        for bad in [
            "",
            "1970-01-01",
            "T00:00:00",
            "1969-12-31T23:59:59Z",
            "1970-13-01T00:00:00Z",
        ] {
            assert_eq!(parse_datetime(bad), None, "`{bad}` should fail");
        }
    }
}
