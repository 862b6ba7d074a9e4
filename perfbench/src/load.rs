//! The load generator: client threads, each with one keep-alive
//! connection, driven closed-loop (send the next request when the last
//! one answered) or open-loop (send on a schedule, whatever the server
//! does). Every request leaves one [`Done`] record — the benchmark's own
//! span: due, sent, done, class, request id — and the response body, so
//! answers are checked after the window instead of stealing CPU from
//! the two cores the server is being measured on.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tiny_http::client::Conn;

/// One request the generator can send. Bodies are shared: an ingest body
/// is built once and sent many times.
#[derive(Debug, Clone)]
pub struct Req {
    /// Index into the workload's class list.
    pub class: usize,
    /// Path and query string.
    pub path: String,
    /// `Some` makes it a POST.
    pub body: Option<Arc<str>>,
}

/// One completed request. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone)]
pub struct Done {
    /// Index into the workload's request list.
    pub req: usize,
    /// Which client thread sent it.
    pub client: usize,
    /// When it was due (open loop), else when it was sent.
    pub due_ns: u64,
    /// When the first byte was written.
    pub sent_ns: u64,
    /// When the response had been read.
    pub done_ns: u64,
    /// HTTP status; 0 when the connection failed.
    pub status: u16,
    /// Response body (the I/O error text when `status` is 0).
    pub body: String,
}

impl Done {
    /// Latency in milliseconds, from the due time: in an open loop a stall
    /// also delays the requests queued behind it, and that wait counts.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }

    /// How late the generator sent it, in milliseconds.
    pub fn lag_ms(&self) -> f64 {
        (self.sent_ns - self.due_ns) as f64 / 1e6
    }
}

/// What one client thread does.
pub enum Script {
    /// Closed loop: called with the nanoseconds since origin, returns the
    /// index of the next request; runs until the window ends.
    Closed(Box<dyn FnMut(u64) -> usize + Send>),
    /// Open loop: `(due_ns, request)` in due order; all of them are sent.
    Open(Vec<(u64, usize)>),
}

fn send(conn: &mut Conn, req: &Req) -> (u16, String) {
    let result = match &req.body {
        Some(body) => conn.post(&req.path, body),
        None => conn.get(&req.path),
    };
    match result {
        Ok((status, body)) => (status, body),
        Err(e) => (0, e.to_string()),
    }
}

/// Run every script on its own thread and connection until `end_ns` after
/// the origin, and return the records of all clients in completion order
/// per client. A failed connection is reopened once per request so one
/// reset does not fail the rest of the run.
pub fn drive(addr: SocketAddr, requests: &[Req], scripts: Vec<Script>, end_ns: u64) -> Vec<Done> {
    let origin = Instant::now();
    let since = move || origin.elapsed().as_nanos() as u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .into_iter()
            .enumerate()
            .map(|(client, script)| {
                scope.spawn(move || {
                    let mut conn = Conn::connect(addr).ok();
                    let mut out = Vec::new();
                    let mut one = |req: usize, due_ns: Option<u64>, out: &mut Vec<Done>| {
                        if conn.is_none() {
                            conn = Conn::connect(addr).ok();
                        }
                        let sent_ns = since();
                        let (status, body) = match conn.as_mut() {
                            Some(c) => send(c, &requests[req]),
                            None => (0, "cannot connect".to_string()),
                        };
                        if status == 0 {
                            conn = None;
                        }
                        out.push(Done {
                            req,
                            client,
                            due_ns: due_ns.unwrap_or(sent_ns).min(sent_ns),
                            sent_ns,
                            done_ns: since(),
                            status,
                            body,
                        });
                    };
                    match script {
                        Script::Closed(mut next) => {
                            while since() < end_ns {
                                one(next(since()), None, &mut out);
                            }
                        }
                        Script::Open(schedule) => {
                            for (due_ns, req) in schedule {
                                let now = since();
                                if due_ns > now {
                                    std::thread::sleep(Duration::from_nanos(due_ns - now));
                                }
                                one(req, Some(due_ns), &mut out);
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// One request on a fresh connection (set-up and control traffic, sent
/// while no client holds one of the server's two workers).
pub fn once(addr: SocketAddr, path: &str, body: Option<&str>) -> Result<String, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let result = match body {
        Some(body) => conn.post(path, body),
        None => conn.get(path),
    };
    match result {
        Ok((200, body)) => Ok(body),
        Ok((status, body)) => Err(format!("{path}: HTTP {status}: {body}")),
        Err(e) => Err(format!("{path}: {e}")),
    }
}

/// An open-loop schedule of `rate` requests per second until `end_ns`:
/// one request in every interval of `1/rate`, at the offset within it
/// (a fraction in `[0, 1)`) that `draw(i)` returns beside the request.
/// Evenly spaced requests keep one phase against the server's own 250 ms
/// refresh tick for a whole run, so a run either collides with it every
/// time or never, and medians of two runs of one tree differ by a fifth;
/// seeded offsets make every run visit every phase.
pub fn paced(
    rate: f64,
    end_ns: u64,
    mut draw: impl FnMut(usize) -> (f64, usize),
) -> Vec<(u64, usize)> {
    let step = 1e9 / rate;
    let mut out = Vec::new();
    for i in 0.. {
        if (i as f64 * step) as u64 >= end_ns {
            break;
        }
        let (offset, req) = draw(i);
        out.push((((i as f64 + offset) * step) as u64, req));
    }
    out
}

/// Merge per-class schedules of one client into due order.
pub fn merge(mut parts: Vec<Vec<(u64, usize)>>) -> Vec<(u64, usize)> {
    let mut all: Vec<(u64, usize)> = parts.drain(..).flatten().collect();
    all.sort_unstable();
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiny_http::{Response, Server};

    #[test]
    fn paced_schedules_keep_their_rate_and_merge_keeps_due_order() {
        let a = paced(10.0, 1_000_000_000, |i| (0.5, i % 2));
        assert_eq!(a.len(), 10);
        assert_eq!(a[0], (50_000_000, 0));
        assert_eq!(a[3], (350_000_000, 1));
        // Whatever the offsets, every interval holds exactly one request.
        let offsets = [0.0, 0.99, 0.3, 0.0, 0.7, 0.999, 0.5, 0.1, 0.0, 0.9];
        let jittered = paced(10.0, 1_000_000_000, |i| (offsets[i], 0));
        for (i, &(due, _)) in jittered.iter().enumerate() {
            assert_eq!(due / 100_000_000, i as u64, "request {i} due at {due}");
        }
        let b = paced(4.0, 1_000_000_000, |_| (0.0, 7));
        let merged = merge(vec![a.clone(), b]);
        assert_eq!(merged.len(), 14);
        assert!(merged.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn open_loop_times_from_due_and_reports_lateness() {
        // A server that takes 30 ms per request, asked for one every 10 ms
        // on one connection: the generator falls behind, and the wait the
        // stall imposes on queued requests shows in latency and in lag.
        let mut server = Server::bind("127.0.0.1:0", 1, |_req| {
            std::thread::sleep(Duration::from_millis(30));
            Response::json(200, "{}".to_string())
        })
        .unwrap();
        let reqs = vec![Req {
            class: 0,
            path: "/x".to_string(),
            body: None,
        }];
        let schedule = paced(100.0, 50_000_000, |_| (0.0, 0));
        assert_eq!(schedule.len(), 5);
        let done = drive(server.local_addr(), &reqs, vec![Script::Open(schedule)], 0);
        server.shutdown();
        assert_eq!(done.len(), 5, "an open loop sends everything it scheduled");
        assert!(done.iter().all(|d| d.status == 200));
        let last = &done[4];
        assert_eq!(last.due_ns, 40_000_000);
        assert!(last.lag_ms() >= 70.0, "sent {} ms late", last.lag_ms());
        assert!(
            last.latency_ms() >= 100.0,
            "latency {} ms",
            last.latency_ms()
        );
        assert!(done[0].lag_ms() < 20.0);
    }

    #[test]
    fn closed_loop_sends_back_to_back_until_the_window_ends() {
        let mut server = Server::bind("127.0.0.1:0", 2, |_req| {
            Response::json(200, "{}".to_string())
        })
        .unwrap();
        let reqs: Vec<Req> = (0..2)
            .map(|class| Req {
                class,
                path: format!("/{class}"),
                body: Some(Arc::from("{}")),
            })
            .collect();
        let scripts = (0..2usize)
            .map(|c| Script::Closed(Box::new(move |_now| c)))
            .collect();
        let done = drive(server.local_addr(), &reqs, scripts, 50_000_000);
        server.shutdown();
        assert!(done.len() > 10);
        assert!(done.iter().all(|d| d.status == 200 && d.req == d.client));
        assert!(done
            .iter()
            .all(|d| d.sent_ns < 50_000_000 && d.due_ns == d.sent_ns));
    }
}
