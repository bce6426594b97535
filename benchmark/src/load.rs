//! The closed-loop load generator and its latency summary.
//!
//! Closed loop because that is what callers of this system are: the line
//! protocol answers one request per connection at a time. Each client
//! sends its next request only after the previous one completed.

use crate::spec::{Kind, Req, RequestGen, Res, Workload};
use std::time::{Duration, Instant};

/// One completed request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Request kind.
    pub kind: Kind,
    /// Send-to-reply latency in milliseconds.
    pub ms: f64,
    /// Whether the answer passed its check.
    pub ok: bool,
}

/// Runs one closed-loop client per element of `clients` for `seconds`,
/// client `i` drawing from its own seeded [`RequestGen`]. `op` performs
/// one request and says whether its answer was right; an `Err` is a lost
/// connection, which fails that request and ends that client. Returns
/// every sample and the measured span in seconds.
pub fn closed_loop<C: Send>(
    clients: &mut [C],
    workload: &Workload,
    seed: u64,
    seconds: f64,
    op: impl Fn(&mut C, &Req) -> Res<bool> + Sync,
) -> (Vec<Sample>, f64) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut slots: Vec<(&mut C, Vec<Sample>)> =
        clients.iter_mut().map(|c| (c, Vec::new())).collect();
    let threads = slots.len();
    // One scoped worker per client; the pool joins them before returning.
    soi_util::pool::for_each_indexed(&mut slots, threads, |i, (client, samples)| {
        for req in RequestGen::new(workload, seed, i as u64) {
            if Instant::now() >= deadline {
                break;
            }
            let sent = Instant::now();
            let answer = op(client, &req);
            samples.push(Sample {
                kind: req.kind,
                ms: sent.elapsed().as_secs_f64() * 1e3,
                ok: answer == Ok(true),
            });
            if answer.is_err() {
                break;
            }
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let samples = slots.into_iter().flat_map(|(_, s)| s).collect();
    (samples, elapsed)
}

/// Percentile `p` (0–100) of `values`, linearly interpolated between
/// order statistics; an error when there are no values.
pub fn percentile(values: &[f64], p: f64) -> Res<f64> {
    if values.is_empty() {
        return Err(format!("no samples to take the p{p} of"));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(soi_util::stats::percentile_sorted(&sorted, p))
}

/// Latencies of the samples of one kind (all kinds when `None`).
pub fn latencies(samples: &[Sample], kind: Option<Kind>) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| kind.is_none_or(|k| s.kind == k))
        .map(|s| s.ms)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        assert!(percentile(&[], 50.0).is_err());
        assert_eq!(percentile(&[7.0], 90.0), Ok(7.0));
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.0), Ok(1.0));
        assert_eq!(percentile(&v, 50.0), Ok(3.0));
        assert_eq!(percentile(&v, 100.0), Ok(5.0));
        assert!((percentile(&v, 90.0).expect("value") - 4.6).abs() < 1e-12);
        let even = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&even, 50.0), Ok(2.5));
    }

    #[test]
    fn closed_loop_runs_every_client_on_its_own_sequence() {
        let w = Workload::by_name(crate::spec::SERVING, true).expect("workload");
        let mut clients = vec![Vec::new(), Vec::new()];
        let (samples, elapsed) =
            closed_loop(&mut clients, &w, 5, 0.05, |seen: &mut Vec<u64>, r| {
                seen.push(r.id);
                std::thread::sleep(Duration::from_millis(1));
                Ok(r.id % 2 == 0)
            });
        assert!(elapsed >= 0.05);
        assert_eq!(samples.len(), clients[0].len() + clients[1].len());
        assert!(!clients[0].is_empty() && !clients[1].is_empty());
        let expected: Vec<u64> = RequestGen::new(&w, 5, 1)
            .take(clients[1].len())
            .map(|r| r.id)
            .collect();
        assert_eq!(clients[1], expected);
        assert!(samples.iter().any(|s| s.ok) && samples.iter().any(|s| !s.ok));
        assert_eq!(latencies(&samples, None).len(), samples.len());
    }

    #[test]
    fn a_lost_connection_fails_one_request_and_ends_that_client() {
        let w = Workload::by_name(crate::spec::SERVING, true).expect("workload");
        let mut clients = vec![0u32, 0];
        let (samples, _) = closed_loop(&mut clients, &w, 5, 0.05, |sent: &mut u32, r| {
            *sent += 1;
            std::thread::sleep(Duration::from_millis(1));
            if r.id < 1_000_000_000 && *sent == 3 {
                return Err("connection closed".to_string());
            }
            Ok(true)
        });
        assert_eq!(clients[0], 3);
        assert!(clients[1] > 3);
        assert_eq!(samples.iter().filter(|s| !s.ok).count(), 1);
    }
}
