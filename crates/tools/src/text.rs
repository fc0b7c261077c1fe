//! Listing text written without the formatter: integers, fixed-point
//! decimals and padded columns appended straight to a `String`, byte for
//! byte what `format!` would print. `dcpicalc` and `dcpisumm` render every
//! row through these.

use std::fmt::Write as _;

/// Enough spaces to pad any listing column.
pub(crate) const SPACES: &str = "                                                                ";

/// One column of a row: the ASCII that `text` appends, padded to `width`
/// with a prefix of `fill` put before it (`{:>width$}`) or after it
/// (`{:<width$}`).
pub(crate) fn column(
    out: &mut String,
    width: usize,
    fill: &str,
    before: bool,
    text: impl FnOnce(&mut String),
) {
    let from = out.len();
    text(out);
    let fill = &fill[..width.saturating_sub(out.len() - from)];
    out.insert_str(if before { from } else { out.len() }, fill);
}

/// Appends `value` in base `RADIX` (10 or 16) without the formatter.
pub(crate) fn push_int<const RADIX: u64>(out: &mut String, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b"0123456789abcdef"[(value % RADIX) as usize];
        value /= RADIX;
        if value == 0 {
            break;
        }
    }
    for &digit in &digits[at..] {
        out.push(char::from(digit));
    }
}

/// Appends `x` as `{:.N$}` prints it for `N = decimals` (0, 1 or 2): the
/// exact binary value rounded half to even, a `-` for any negative value
/// (`-0.0` included), in integer arithmetic. NaN, the infinities and
/// magnitudes of 2^52 and more go through the formatter.
pub(crate) fn push_fixed(out: &mut String, x: f64, decimals: u32) {
    debug_assert!(decimals <= 2, "{decimals} decimals");
    let bits = x.to_bits();
    // |x| = mantissa × 2^-shift, so |x| × 10^decimals is that product over
    // 2^shift exactly.
    let shift = 1075 - (bits >> 52 & 0x7ff) as i64;
    if shift < 1 {
        let _ = write!(out, "{x:.0$}", decimals as usize);
        return;
    }
    if x.is_sign_negative() {
        out.push('-');
    }
    let scale = match decimals {
        0 => 1,
        1 => 10,
        _ => 100,
    };
    let scaled = (bits & ((1 << 52) - 1) | 1 << 52) * scale;
    // Below 2^-10 (zero and subnormals included) every value rounds to 0,
    // so the shift can stop at 63.
    let shift = shift.min(63);
    let (quotient, rest, half) = (
        scaled >> shift,
        scaled & ((1 << shift) - 1),
        1 << (shift - 1),
    );
    let rounded = quotient + u64::from(rest > half || (rest == half && quotient % 2 == 1));
    push_int::<10>(out, rounded / scale);
    if decimals > 0 {
        out.push('.');
        let fraction = rounded % scale;
        if decimals == 2 && fraction < 10 {
            out.push('0');
        }
        push_int::<10>(out, fraction);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_fixed_matches_the_formatter() {
        let mut state = 0x7e57u64;
        let mut cases = vec![0.0, -0.0, -1.25, 0.05, 0.25, 0.75, 99.95, 1e15, 5e15, 1e300];
        cases.extend([
            0.5,
            1.5,
            2.5,
            -0.5,
            0.005,
            0.015,
            -0.004,
            0.0078125,
            f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            (1u64 << 52) as f64 - 0.5,
            (1u64 << 52) as f64,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ]);
        for i in 0..60_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Sixteenths (and hundred-twenty-eighths) hit exact ties, with
            // either sign; raw bit patterns cover every exponent, both
            // signs, NaN and subnormals.
            let tie = (state >> 40) as f64 / if i % 2 == 0 { 16.0 } else { 128.0 };
            cases.push(if state & 1 == 0 { tie } else { -tie });
            cases.push(f64::from_bits(state >> (i % 3)));
        }
        for x in cases {
            for decimals in 0..=2 {
                let mut fast = String::from(">");
                push_fixed(&mut fast, x, decimals);
                let exact = format!(">{x:.0$}", decimals as usize);
                assert_eq!(fast, exact, "{x:e} to {decimals} decimals");
            }
        }
    }

    #[test]
    fn columns_pad_like_the_formatter() {
        let mut out = String::new();
        column(&mut out, 5, SPACES, true, |o| push_fixed(o, -1.25, 1));
        column(&mut out, 4, SPACES, false, |o| o.push_str("ab"));
        column(&mut out, 2, SPACES, true, |o| push_int::<16>(o, 0xabc));
        assert_eq!(out, format!("{:>5.1}{:<4}{:>2x}", -1.25, "ab", 0xabc));
    }
}
