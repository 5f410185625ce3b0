//! The load generator for the `nscd` workloads: a precomputed arrival
//! schedule, an open loop that times each request from the instant it
//! was *due*, and a closed loop for capacity. One thread per connection,
//! at most `nproc` connections.

use crate::span::Recorder;
use near_stream::ExecMode;
use nsc_serve::json::Obj;
use nsc_serve::Request;
use nsc_sim::rng::Rng;
use nsc_workloads::Size;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// How long a generator waits for outstanding responses after its last
/// send before it declares them lost. Also the latency charged to a
/// request that failed.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// While responses are outstanding the open loop polls its socket at
/// this interval, which bounds both how late a response is seen and how
/// late the next request is sent.
const POLL: Duration = Duration::from_micros(100);

/// One request key: a Table VI kernel under one mode, at `tiny` scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Key {
    /// Kernel name.
    pub kernel: &'static str,
    /// Execution mode.
    pub mode: ExecMode,
}

/// Every Table VI kernel under each of `modes`, kernel-major.
pub fn keyset(modes: &[ExecMode]) -> Vec<Key> {
    nsc_workloads::names()
        .iter()
        .flat_map(|k| {
            modes.iter().map(move |m| Key {
                kernel: k,
                mode: *m,
            })
        })
        .collect()
}

/// How request keys are drawn.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyDist {
    /// Independent draws, Zipf over key ranks with exponent `theta`
    /// (rank = key index).
    Zipf(f64),
    /// A walk over a seeded permutation of the keys in which every
    /// `every`-th request repeats the key first requested `back` new
    /// keys ago. Every key is requested equally often, and with a cache
    /// that holds more than `back` but far fewer than all keys the share
    /// of requests that can hit is exactly `1 / every` — independent
    /// draws leave both to chance, which moved every latency figure by a
    /// tenth from seed to seed.
    Recycle {
        /// One request in `every` is a repeat.
        every: usize,
        /// How many new keys back the repeated key lies.
        back: usize,
    },
}

/// The seeded stream of request keys of one workload run.
#[derive(Clone)]
pub struct KeyStream {
    dist: KeyDist,
    /// Key order of the walk (`Recycle`); identity for `Zipf`.
    perm: Vec<usize>,
    /// Cumulative Zipf weights.
    cum: Vec<f64>,
    rng: Rng,
    /// New keys walked so far.
    fresh: usize,
    /// Requests emitted so far.
    emitted: usize,
}

impl KeyStream {
    /// The stream over `n_keys` keys under `dist`: a pure function of
    /// its arguments.
    pub fn new(dist: KeyDist, n_keys: usize, seed: u64) -> KeyStream {
        let mut rng = Rng::seed_from_u64(seed ^ 0x6b65_7973);
        let mut perm: Vec<usize> = (0..n_keys).collect();
        let mut cum = Vec::new();
        match dist {
            KeyDist::Zipf(theta) => {
                let mut total = 0.0;
                cum = (1..=n_keys)
                    .map(|rank| {
                        total += 1.0 / (rank as f64).powf(theta);
                        total
                    })
                    .collect();
            }
            KeyDist::Recycle { .. } => crate::kernels::shuffle(&mut perm, &mut rng),
        }
        KeyStream {
            dist,
            perm,
            cum,
            rng,
            fresh: 0,
            emitted: 0,
        }
    }

    /// The order in which the warm-up submits every key once: the walk's
    /// own order, so that the keys the walk reaches first are the ones
    /// the warm-up stored longest ago.
    pub fn warm_order(&self) -> &[usize] {
        &self.perm
    }

    /// The stream one of `lanes` concurrent closed-loop connections
    /// draws from: the walk continues from this stream's position, the
    /// lanes spread evenly around the permutation so that no two request
    /// the same keys at the same time, and repeats reach proportionally
    /// less far back.
    pub fn lane(&self, lane: usize, lanes: usize) -> KeyStream {
        let mut s = self.clone();
        let lanes = lanes.max(1);
        s.fresh += lane * self.perm.len() / lanes;
        if let KeyDist::Recycle { every, back } = s.dist {
            // The lanes interleave, so a key `back / lanes` new keys back
            // in one lane is `back` new keys back at the daemon.
            s.dist = KeyDist::Recycle {
                every,
                back: (back / lanes).max(1),
            };
        }
        s.rng = Rng::seed_from_u64(s.rng.next_u64() ^ ((lane as u64 + 1) << 48));
        s
    }

    /// The next request's key index.
    pub fn next_key(&mut self) -> usize {
        self.emitted += 1;
        match self.dist {
            KeyDist::Zipf(_) => {
                let x = self.rng.gen_f64() * self.cum.last().copied().unwrap_or(1.0);
                self.cum.partition_point(|&c| c < x).min(self.cum.len() - 1)
            }
            KeyDist::Recycle { every, back } => {
                let n = self.perm.len();
                if self.emitted.is_multiple_of(every) && self.fresh >= back {
                    self.perm[(self.fresh - back) % n]
                } else {
                    self.fresh += 1;
                    self.perm[(self.fresh - 1) % n]
                }
            }
        }
    }

    /// The next `n` keys.
    pub fn take(&mut self, n: usize) -> Vec<usize> {
        (0..n).map(|_| self.next_key()).collect()
    }
}

/// One scheduled request of the open loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// When the request is due, nanoseconds after the window opens.
    pub due_ns: u64,
    /// Index into the key set.
    pub key: usize,
}

/// The open-loop schedule: the window is cut into `round(rate * secs)`
/// equal slots and one request falls at a uniformly random instant of
/// each, with the next key of `keys`. Gaps between requests range from
/// nothing to two slots, so requests do queue behind each other, but
/// every seed offers the same load with the same burstiness; with
/// independent (Poisson) arrivals the tail percentile moved by a quarter
/// from seed to seed on the few hundred requests a run can afford. A pure
/// function of its arguments.
pub fn schedule(seed: u64, rate: f64, secs: f64, keys: &mut KeyStream) -> Vec<Arrival> {
    let mut rng = Rng::seed_from_u64(seed);
    let n = (rate * secs).round().max(1.0) as usize;
    let slot_ns = secs * 1e9 / n as f64;
    (0..n)
        .map(|i| Arrival {
            due_ns: ((i as f64 + rng.gen_f64()) * slot_ns) as u64,
            key: keys.next_key(),
        })
        .collect()
}

/// Deals a schedule round-robin over `conns` connections.
pub fn deal(arrivals: &[Arrival], conns: usize) -> Vec<Vec<Arrival>> {
    let mut out = vec![Vec::new(); conns];
    for (i, a) in arrivals.iter().enumerate() {
        out[i % conns].push(*a);
    }
    out
}

/// One request as the generator saw it.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index into the key set.
    pub key: usize,
    /// Correlation id sent on the wire.
    pub id: u64,
    /// When it was due (open loop) or sent (closed loop).
    pub due: Instant,
    /// When its line was written.
    pub sent: Instant,
    /// When its response line was complete, and the line; `None` = lost.
    pub response: Option<(Instant, String)>,
}

impl Sample {
    /// Latency from due time in nanoseconds; [`DRAIN_TIMEOUT`] when lost.
    pub fn latency_ns(&self) -> f64 {
        match &self.response {
            Some((at, _)) => at.saturating_duration_since(self.due).as_nanos() as f64,
            None => DRAIN_TIMEOUT.as_nanos() as f64,
        }
    }

    /// How late the generator sent it, nanoseconds.
    pub fn lateness_ns(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_nanos() as f64
    }
}

/// A connection to the daemon with its own line buffer.
pub struct Conn {
    stream: UnixStream,
    buf: Vec<u8>,
    next_id: u64,
    /// Response lines that arrived with no request outstanding.
    pub unsolicited: u64,
}

impl Conn {
    /// Connects to the daemon's socket. `first_id` starts this
    /// connection's correlation ids (ids are unique across connections).
    pub fn open(socket: &Path, first_id: u64) -> io::Result<Conn> {
        let stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(DRAIN_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            next_id: first_id,
            unsolicited: 0,
        })
    }

    fn take_line(&mut self) -> Option<String> {
        let end = self.buf.iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&self.buf[..end]).into_owned();
        self.buf.drain(..=end);
        Some(line)
    }

    /// Reads whatever the socket holds into the line buffer. `Ok(false)`
    /// when nothing was ready (non-blocking) or the read timed out.
    fn fill(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 1 << 14];
        loop {
            return match self.stream.read(&mut chunk) {
                Ok(0) => Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "the daemon closed the connection",
                )),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    Ok(true)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    Ok(false)
                }
                Err(e) => Err(e),
            };
        }
    }

    /// Blocks until one response line is complete (or the read times out).
    pub fn read_line(&mut self) -> io::Result<Option<String>> {
        loop {
            if let Some(line) = self.take_line() {
                return Ok(Some(line));
            }
            if !self.fill()? {
                return Ok(None);
            }
        }
    }

    fn write_line(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = line.as_bytes();
        // The socket is non-blocking during the open loop; a full send
        // buffer (never seen at these rates) is waited out.
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(n) => bytes = &bytes[n..],
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) =>
                {
                    std::thread::yield_now()
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Sends one `run` request for `key` and returns its correlation id.
    pub fn send_run(&mut self, key: Key) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Request::Run {
            id,
            request_id: 0,
            workload: key.kernel.to_owned(),
            size: Size::Tiny,
            mode: key.mode,
            deadline_ms: 0,
        };
        self.write_line(&(req.render() + "\n"))?;
        Ok(id)
    }

    /// Sends a non-run request and waits for its (ordered) response.
    pub fn roundtrip(&mut self, make: impl FnOnce(u64) -> Request) -> io::Result<Obj> {
        let id = self.next_id;
        self.next_id += 1;
        self.write_line(&(make(id).render() + "\n"))?;
        let line = self.read_line()?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::TimedOut, "no response from the daemon")
        })?;
        Obj::parse(&line)
            .filter(|o| o.get_num("id") == Some(id))
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected response: {line}"),
                )
            })
    }

    /// Submits every key of `order` back to back, then a `flush` barrier,
    /// and collects the responses: the untimed warm-up.
    pub fn submit_all(&mut self, keys: &[Key], order: &[usize]) -> io::Result<Vec<Sample>> {
        let mut samples = Vec::with_capacity(order.len());
        for &k in order {
            let now = Instant::now();
            let id = self.send_run(keys[k])?;
            samples.push(Sample {
                key: k,
                id,
                due: now,
                sent: now,
                response: None,
            });
        }
        for s in &mut samples {
            let line = self
                .read_line()?
                .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "warm-up response lost"))?;
            s.response = Some((Instant::now(), line));
        }
        self.roundtrip(|id| Request::Flush { id })?;
        Ok(samples)
    }

    /// Open loop: sends each arrival when it is due (measured from `t0`)
    /// whether or not earlier responses are back, and stamps responses as
    /// they complete. `on_response` sees every completed sample (the
    /// traced run parses the daemon's span tree there).
    pub fn open_loop(
        &mut self,
        keys: &[Key],
        arrivals: &[Arrival],
        t0: Instant,
        mut on_response: impl FnMut(&Sample),
    ) -> io::Result<Vec<Sample>> {
        self.stream.set_nonblocking(true)?;
        let mut samples: Vec<Sample> = Vec::with_capacity(arrivals.len());
        let mut outstanding: VecDeque<usize> = VecDeque::new();
        let mut next = 0;
        let mut give_up: Option<Instant> = None;
        while next < arrivals.len() || !outstanding.is_empty() {
            while self.fill()? {}
            while let Some(line) = self.take_line() {
                match outstanding.pop_front() {
                    Some(i) => {
                        samples[i].response = Some((Instant::now(), line));
                        on_response(&samples[i]);
                    }
                    None => self.unsolicited += 1,
                }
            }
            let now = Instant::now();
            if let Some(a) = arrivals.get(next) {
                let due = t0 + Duration::from_nanos(a.due_ns);
                if due <= now {
                    let id = self.send_run(keys[a.key])?;
                    outstanding.push_back(samples.len());
                    samples.push(Sample {
                        key: a.key,
                        id,
                        due,
                        sent: Instant::now(),
                        response: None,
                    });
                    next += 1;
                    continue;
                }
                // Sleep short of the due time (the kernel adds its timer
                // slack) and spin the rest; poll while anything is out.
                let wait = due - now;
                let nap = if outstanding.is_empty() {
                    wait.saturating_sub(Duration::from_micros(150))
                } else {
                    wait.min(POLL)
                };
                if !nap.is_zero() {
                    std::thread::sleep(nap);
                }
            } else {
                let deadline = *give_up.get_or_insert(now + DRAIN_TIMEOUT);
                if now >= deadline {
                    break;
                }
                std::thread::sleep(POLL);
            }
        }
        self.stream.set_nonblocking(false)?;
        Ok(samples)
    }

    /// Closed loop: one request at a time, the next sent as soon as the
    /// previous is answered, keys taken from `sequence` (cycled), until
    /// `until`.
    pub fn closed_loop(
        &mut self,
        keys: &[Key],
        sequence: &[usize],
        until: Instant,
    ) -> io::Result<Vec<Sample>> {
        let mut samples = Vec::new();
        for &k in sequence.iter().cycle() {
            let sent = Instant::now();
            if sent >= until {
                break;
            }
            let id = self.send_run(keys[k])?;
            let response = self.read_line()?.map(|line| (Instant::now(), line));
            let lost = response.is_none();
            samples.push(Sample {
                key: k,
                id,
                due: sent,
                sent,
                response,
            });
            if lost {
                break;
            }
        }
        Ok(samples)
    }
}

/// The spans of the daemon's per-request tree, in pipeline order, as
/// this benchmark names them; the daemon's own names lack the prefix.
pub const DAEMON_SPANS: [&str; 9] = [
    "serve.span.accept",
    "serve.span.parse",
    "serve.span.queue_wait",
    "serve.span.pool_dispatch",
    "serve.span.cache_probe",
    "serve.span.simulate",
    "serve.span.encode",
    "serve.span.reorder_hold",
    "serve.span.deliver",
];

/// The daemon's own name of one of [`DAEMON_SPANS`].
pub fn daemon_name(span: &'static str) -> &'static str {
    span.strip_prefix("serve.span.").unwrap_or(span)
}

fn daemon_span_name(name: &str) -> Option<&'static str> {
    DAEMON_SPANS.into_iter().find(|s| daemon_name(s) == name)
}

/// Records a completed request as spans: `client.request` (send to
/// response) with the daemon's own tree inside it — `serve.request` and
/// one child per daemon span. The daemon opens its tree when it starts
/// waiting for the line, so its `accept` span is mostly idle time before
/// the request existed; the tree is placed so that `accept` ends where
/// the rest begins, and the rest is centred in the client's interval
/// (the two clocks share no epoch). Returns the daemon's time from
/// `parse` to `deliver` in microseconds.
pub fn record_request(rec: &mut Recorder, sample: &Sample) -> Option<u64> {
    let (at, line) = sample.response.as_ref()?;
    let tree = nsc_sim::json::parse(Obj::parse(line)?.get_str("latency")?).ok()?;
    let us = |v: &nsc_sim::json::Json, key: &str| Some(v.get(key)?.as_f64()? as u64);
    let spans: Vec<(&'static str, u64, u64)> = tree
        .get("spans")?
        .as_arr()?
        .iter()
        .filter_map(|s| {
            Some((
                daemon_span_name(s.get("name")?.as_str()?)?,
                us(s, "start_us")?,
                us(s, "dur_us")?,
            ))
        })
        .collect();
    let accept_end_us = spans
        .iter()
        .find(|s| s.0 == "serve.span.accept")
        .map_or(0, |s| s.1 + s.2);
    let service_us = us(&tree, "wall_us")?.saturating_sub(accept_end_us);
    let (sent_ns, recv_ns) = (rec.ns_of(sample.sent), rec.ns_of(*at));
    let root = rec.push("client.request", sent_ns, recv_ns, None, sample.id);
    let wire_ns = (recv_ns - sent_ns).saturating_sub(service_us * 1000);
    let d0 = sent_ns + wire_ns / 2;
    let daemon = rec.push("serve.request", d0, d0 + service_us * 1000, root, sample.id);
    for (name, start_us, dur_us) in spans {
        // Relative to the end of `accept`; `accept` itself lies before.
        let start = (d0 + start_us * 1000).saturating_sub(accept_end_us * 1000);
        rec.push(name, start, start + dur_us * 1000, daemon, sample.id);
    }
    Some(service_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_and_keys_are_a_pure_function_of_the_seed() {
        let plan = |seed| {
            schedule(
                seed,
                40.0,
                5.0,
                &mut KeyStream::new(KeyDist::Zipf(0.9), 28, seed),
            )
        };
        let a = plan(42);
        assert_eq!(a, plan(42));
        assert_ne!(a, plan(43));
        // Every seed offers the same number of requests, in time order,
        // inside the window.
        assert_eq!(a.len(), 200);
        assert_eq!(plan(43).len(), 200);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(
            a.iter()
                .enumerate()
                .all(|(i, x)| x.due_ns / 25_000_000 == i as u64 && x.key < 28),
            "one request per 25 ms slot"
        );
        let recycle = KeyDist::Recycle { every: 4, back: 6 };
        let seq = |seed| KeyStream::new(recycle, 112, seed).take(64);
        assert_eq!(seq(1), seq(1));
        assert_ne!(seq(1), seq(2));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let keys = KeyStream::new(KeyDist::Zipf(0.9), 28, 9).take(10_000);
        let first = keys.iter().filter(|&&k| k == 0).count();
        let last = keys.iter().filter(|&&k| k == 27).count();
        assert!(first > 5 * last.max(1), "{first} vs {last}");
    }

    #[test]
    fn recycle_repeats_one_request_in_four_and_requests_keys_evenly() {
        let (n_keys, back) = (112, 6);
        let mut stream = KeyStream::new(KeyDist::Recycle { every: 4, back }, n_keys, 5);
        assert_eq!(stream.warm_order().len(), n_keys);
        let keys = stream.take(4 * 3 * n_keys);
        // A repeat is a key seen among the last `2 * back` requests; a
        // new key was last seen a whole permutation ago.
        let recent = |i: usize| keys[i.saturating_sub(2 * back)..i].contains(&keys[i]);
        let repeats = (0..keys.len()).filter(|&i| recent(i)).count();
        assert_eq!(
            repeats,
            keys.len() / 4 - 1,
            "the first slot has nothing to repeat yet"
        );
        let mut count = vec![0usize; n_keys];
        keys.iter().for_each(|&k| count[k] += 1);
        assert!(count.iter().all(|&c| (9..=15).contains(&c)), "{count:?}");
        // Lanes start a half permutation apart and continue the walk.
        let (a, b) = (stream.lane(0, 2).next_key(), stream.lane(1, 2).next_key());
        let pos = |k| stream.warm_order().iter().position(|&p| p == k).unwrap();
        assert_eq!((pos(b) + n_keys - pos(a)) % n_keys, n_keys / 2);
    }

    #[test]
    fn deal_is_round_robin() {
        let a = schedule(1, 10.0, 1.0, &mut KeyStream::new(KeyDist::Zipf(0.9), 4, 1));
        let dealt = deal(&a, 2);
        assert_eq!(dealt[0].len() + dealt[1].len(), a.len());
        assert_eq!(dealt[0][1], a[2]);
        assert_eq!(dealt[1][0], a[1]);
    }

    #[test]
    fn keysets_cover_every_kernel() {
        assert_eq!(keyset(&[ExecMode::Base, ExecMode::Ns]).len(), 28);
        assert_eq!(keyset(&ExecMode::ALL).len(), 112);
    }

    #[test]
    fn daemon_tree_becomes_child_spans_with_self_time() {
        // 5000 us idle in `accept`, then 100 us of work.
        let tree = "{\\\"schema\\\":\\\"nsc-span-v1\\\",\\\"request_id\\\":\\\"00\\\",\\\"start_us\\\":5,\\\"wall_us\\\":5100,\\\"spans\\\":[{\\\"name\\\":\\\"accept\\\",\\\"start_us\\\":0,\\\"dur_us\\\":5000},{\\\"name\\\":\\\"parse\\\",\\\"start_us\\\":5000,\\\"dur_us\\\":10},{\\\"name\\\":\\\"simulate\\\",\\\"start_us\\\":5020,\\\"dur_us\\\":70}]}";
        let line = format!("{{\"id\":1,\"ok\":true,\"latency\":\"{tree}\"}}");
        let mut rec = Recorder::new(true);
        let sent = Instant::now() + Duration::from_millis(10);
        let sample = Sample {
            key: 0,
            id: 1,
            due: sent,
            sent,
            response: Some((sent + Duration::from_micros(140), line)),
        };
        assert_eq!(record_request(&mut rec, &sample), Some(100));
        let t = rec.totals();
        assert_eq!(t["client.request"].total_ns, 140_000);
        assert_eq!(
            t["client.request"].self_ns, 40_000,
            "wire overhead is the client's self time"
        );
        assert_eq!(t["serve.request"].self_ns, 20_000);
        assert_eq!(t["serve.span.simulate"].total_ns, 70_000);
        assert_eq!(
            t["serve.span.accept"].total_ns, 5_000_000,
            "the idle wait keeps its length but lies outside the request"
        );
    }
}
