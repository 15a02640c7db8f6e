//! Output checks. Each runs after the timed region; any failure makes the
//! run print `"correct": false` and exit nonzero.

/// Outcome of one check: `Err` carries a one-line reason.
pub type Check = Result<(), String>;

/// Two independent estimates of one probability agree within `sigmas`
/// combined standard errors.
pub fn estimates_agree(label: &str, a: (f64, f64), b: (f64, f64), sigmas: f64) -> Check {
    let ((pa, sa), (pb, sb)) = (a, b);
    let tol = sigmas * (sa * sa + sb * sb).sqrt();
    if (pa - pb).abs() <= tol && pa.is_finite() && pb.is_finite() {
        Ok(())
    } else {
        Err(format!(
            "{label}: IS {pa:.4e} (se {sa:.2e}) vs plain MC {pb:.4e} (se {sb:.2e}) differ by more than {sigmas} combined sigma"
        ))
    }
}

/// The minimum of a valley plot lies strictly inside the twist grid.
pub fn valley_interior(label: &str, best: usize, grid_len: usize) -> Check {
    if best > 0 && best + 1 < grid_len {
        Ok(())
    } else {
        Err(format!(
            "{label}: valley minimum at twist index {best} of {grid_len} is on the grid edge"
        ))
    }
}

/// Kish effective sample size at or above the floor.
pub fn ess_above(label: &str, ess: f64, floor: f64) -> Check {
    if ess >= floor {
        Ok(())
    } else {
        Err(format!("{label}: ESS {ess:.2} below the floor {floor}"))
    }
}

/// An estimate reached its relative-error target.
pub fn relative_error_within(label: &str, rel_err: f64, target: f64) -> Check {
    if rel_err <= target {
        Ok(())
    } else {
        Err(format!(
            "{label}: relative error {rel_err:.3} above the target {target}"
        ))
    }
}

/// `value` lies within `tol` (absolute) of `target`.
pub fn within_abs(label: &str, value: f64, target: f64, tol: f64) -> Check {
    if (value - target).abs() <= tol {
        Ok(())
    } else {
        Err(format!(
            "{label}: {value:.4} is not within {tol} of {target:.4}"
        ))
    }
}

/// `value` lies within the relative tolerance `rel` of `target`.
pub fn within_rel(label: &str, value: f64, target: f64, rel: f64) -> Check {
    if (value - target).abs() <= rel * target.abs() {
        Ok(())
    } else {
        Err(format!(
            "{label}: {value:.4} is not within {:.1}% of {target:.4}",
            rel * 100.0
        ))
    }
}

/// A session's delivered chunk indices run `0, 1, …, expected − 1` with no
/// gap, repeat or extra chunk.
pub fn chunk_stream_complete(label: &str, indices: &[u64], expected: u64) -> Check {
    for (want, &got) in indices.iter().enumerate() {
        if got != want as u64 {
            return Err(format!("{label}: chunk {got} arrived where {want} was due"));
        }
    }
    if indices.len() as u64 != expected {
        return Err(format!(
            "{label}: {} chunks delivered, {expected} expected",
            indices.len()
        ));
    }
    Ok(())
}

/// Two chunk streams are byte-identical.
pub fn streams_identical(label: &str, served: &[String], reference: &[String]) -> Check {
    if served.len() != reference.len() {
        return Err(format!(
            "{label}: {} chunks served, {} generated in process",
            served.len(),
            reference.len()
        ));
    }
    match served.iter().zip(reference).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{label}: chunk {i} differs from in-process generate_chunk output"
        )),
    }
}

/// Collect the failures of a list of checks.
pub fn failures(checks: impl IntoIterator<Item = Check>) -> Vec<String> {
    checks.into_iter().filter_map(Result::err).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_estimate_doubled_is_rejected() {
        // IS at ±10% (1σ) and plain MC at ±12%: agreement passes, an IS
        // estimate doubled by a bug does not.
        let (p, is_se, mc_se) = (0.02, 0.002, 0.0024);
        assert!(estimates_agree("pt", (p, is_se), (p * 1.05, mc_se), 4.0).is_ok());
        assert!(estimates_agree("pt", (2.0 * p, is_se), (p, mc_se), 4.0).is_err());
        assert!(estimates_agree("pt", (f64::NAN, is_se), (p, mc_se), 4.0).is_err());
    }

    #[test]
    fn valley_on_edge_is_rejected() {
        assert!(valley_interior("v", 3, 9).is_ok());
        assert!(valley_interior("v", 0, 9).is_err());
        assert!(valley_interior("v", 8, 9).is_err());
    }

    #[test]
    fn collapsed_ess_is_rejected() {
        assert!(ess_above("e", 40.0, 4.0).is_ok());
        assert!(ess_above("e", 1.5, 4.0).is_err());
    }

    #[test]
    fn hurst_off_by_a_fifth_is_rejected() {
        let fitted = 0.8;
        assert!(within_abs("h", 0.83, fitted, 0.05).is_ok());
        assert!(within_abs("h", 0.83 + 0.2, fitted, 0.05).is_err());
        assert!(within_abs("h", 0.6, fitted, 0.05).is_err());
    }

    #[test]
    fn mean_off_by_more_than_two_percent_is_rejected() {
        assert!(within_rel("m", 101.5, 100.0, 0.02).is_ok());
        assert!(within_rel("m", 97.0, 100.0, 0.02).is_err());
    }

    #[test]
    fn gap_in_a_chunk_stream_is_rejected() {
        assert!(chunk_stream_complete("s", &[0, 1, 2, 3], 4).is_ok());
        assert!(chunk_stream_complete("s", &[0, 1, 3], 4).is_err());
        assert!(chunk_stream_complete("s", &[0, 1, 1, 2], 4).is_err());
        assert!(chunk_stream_complete("s", &[0, 1, 2], 4).is_err());
        assert!(chunk_stream_complete("s", &[0, 1, 2, 3, 4], 4).is_err());
    }

    #[test]
    fn altered_chunk_is_rejected() {
        let a = vec![
            "chunk 0 n=2\n1 2\n".to_string(),
            "chunk 1 n=2\n3 4\n".into(),
        ];
        let mut b = a.clone();
        assert!(streams_identical("s", &a, &b).is_ok());
        b[1] = "chunk 1 n=2\n3 4.000001\n".into();
        assert!(streams_identical("s", &a, &b).is_err());
        assert!(streams_identical("s", &a, &a[..1]).is_err());
    }
}
