//! The untraced phase: stand the server up, check its answers, and time
//! closed-loop sessions sending OQL text through `Session::execute_text`.

use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use oorq::exec::MethodRegistry;
use oorq::obs::MetricsSnapshot;
use oorq::serve::{Server, ServerConfig, Session};
use oorq_prng::Prng;

use crate::check::{reference_digest, render, Digest};
use crate::inputs::{Built, Inputs, Request, Schedule, Vocabulary};
use crate::stats::percentile;

/// One client: a session and what it sends.
pub struct Client<'s> {
    pub session: Session<'s>,
    pub schedule: Schedule,
}

/// A hot text with what the server answered for it while warming up.
#[derive(Debug, Clone)]
pub struct HotText {
    pub text: String,
    pub digest: Digest,
    pub plan_fingerprint: u64,
}

/// A server's warmed-up clients, and what they saw while warming up.
pub struct SetUp<'s> {
    pub clients: Vec<Client<'s>>,
    pub hot: Vec<HotText>,
    /// `Server::session` durations.
    pub session_open_ns: Vec<u64>,
}

/// Stopwatch over the stages of a set-up: [`Laps::lap`] closes a stage,
/// so the stages of one set-up add up to the whole of it.
pub struct Laps {
    last: Instant,
    /// Seconds each closed stage took, in order.
    pub stages_s: Vec<f64>,
}

impl Laps {
    pub fn start() -> Laps {
        Laps {
            last: Instant::now(),
            stages_s: Vec::new(),
        }
    }

    pub fn lap(&mut self) {
        let now = Instant::now();
        self.stages_s.push((now - self.last).as_secs_f64());
        self.last = now;
    }
}

/// Stand up a server over freshly generated data: the first stage of
/// `laps`.
pub fn stand_up(inputs: &Inputs, laps: &mut Laps) -> Server {
    let Built { db, indexes, .. } = inputs.build();
    let config = ServerConfig {
        exec: inputs.exec.clone(),
        ..ServerConfig::default()
    };
    let server = Server::new(db, indexes, MethodRegistry::new(), config);
    laps.lap();
    server
}

/// Sessions the text generators are split over: the timed ones and one
/// more for the single-session comparison round.
pub fn lanes(inputs: &Inputs) -> usize {
    inputs.sessions + 1
}

/// Open session `lane` and warm it up: every hot text once, so its plan
/// is cached, and a few ad-hoc texts; the open and every request are a
/// stage of `laps`. Returns the client, what each hot text answered, and
/// how long `Server::session` took.
pub fn open_client<'s>(
    inputs: &Inputs,
    server: &'s Server,
    vocabulary: Option<&Vocabulary>,
    lane: usize,
    laps: &mut Laps,
) -> Result<(Client<'s>, Vec<HotText>, u64), String> {
    let t0 = Instant::now();
    let mut session = server.session();
    let open_ns = t0.elapsed().as_nanos() as u64;
    laps.lap();
    let mut schedule = Schedule::new(inputs, vocabulary, lane, lanes(inputs));
    let mut hot = Vec::new();
    let mut bytes = Vec::new();
    for (i, text) in schedule.hot().iter().enumerate() {
        let answer = session
            .execute_text(text)
            .map_err(|e| format!("warm-up of hot text {i} failed: {e}"))?;
        render(&answer.batch, &mut bytes);
        hot.push(HotText {
            text: text.clone(),
            digest: Digest::of_bytes(&bytes),
            plan_fingerprint: answer.plan_fingerprint,
        });
        laps.lap();
    }
    for _ in 0..inputs.warmup_adhoc {
        let text = schedule
            .adhoc_text()
            .expect("ad-hoc warm-up without generator");
        session
            .execute_text(&text)
            .map_err(|e| format!("warm-up of `{text}` failed: {e}"))?;
        laps.lap();
    }
    Ok((Client { session, schedule }, hot, open_ns))
}

/// Open and warm up the workload's timed sessions.
pub fn open_and_warm<'s>(
    inputs: &Inputs,
    server: &'s Server,
    vocabulary: Option<&Vocabulary>,
    laps: &mut Laps,
) -> Result<SetUp<'s>, String> {
    let mut setup = SetUp {
        clients: Vec::new(),
        hot: Vec::new(),
        session_open_ns: Vec::new(),
    };
    for lane in 0..inputs.sessions {
        let (client, hot, open_ns) = open_client(inputs, server, vocabulary, lane, laps)?;
        if lane > 0
            && hot
                .iter()
                .zip(&setup.hot)
                .any(|(a, b)| a.digest != b.digest)
        {
            return Err(format!("session {lane} answers a hot text differently"));
        }
        if lane == 0 {
            setup.hot = hot;
        }
        setup.clients.push(client);
        setup.session_open_ns.push(open_ns);
    }
    Ok(setup)
}

/// Check every hot answer against a reference the optimizer has no part
/// in: the closure against the chain's pairs in closed form, a music
/// text against the naive query-graph evaluator on `data` (a copy of the
/// database no plan has run on).
pub fn verify_hot(inputs: &Inputs, data: &Built, hot: &[HotText]) -> Result<(), String> {
    if let Some(rows) = inputs.closure_reference() {
        let expected = Digest::of_rows(rows.iter());
        return if hot.iter().all(|h| h.digest == expected) {
            Ok(())
        } else {
            Err(format!(
                "closure answer differs from the {} chain pairs",
                rows.len()
            ))
        };
    }
    // An evaluation takes a second at 200 composers: the cores share the
    // texts, each evaluating on a snapshot of its own.
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let source = &data.db;
    std::thread::scope(|scope| {
        let verifiers: Vec<_> = (0..workers)
            .map(|worker| {
                scope.spawn(move || {
                    let db = source.snapshot();
                    for (i, h) in hot.iter().enumerate().skip(worker).step_by(workers) {
                        let reference = reference_digest(&db, &h.text)?;
                        if reference != h.digest {
                            return Err(format!(
                                "hot text {i}: served {} rows, reference evaluator {} rows, \
                                 or the rows differ",
                                h.digest.rows, reference.rows
                            ));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        verifiers
            .into_iter()
            .try_for_each(|v| v.join().expect("verifier thread panicked"))
    })
}

/// What the timed sessions measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Request latencies (text in to bytes out), ascending, in ms.
    pub latencies_ms: Vec<f64>,
    /// The same latencies in completion order, each with its completion
    /// time in seconds since the window opened.
    samples: Vec<(f64, f64)>,
    /// Sessions that sent them.
    sessions: usize,
    /// `Answer::wall_ns` of every request, as the server measured it.
    pub server_wall_ns: Vec<u64>,
    /// Wall time from the common start to the last session's end.
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// First failure, for the log.
    pub first_error: Option<String>,
    /// Ad-hoc texts sent, with the digest of what came back.
    pub adhoc: Vec<(String, Digest)>,
    /// Server metrics accumulated during the window.
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
    pub recalibrations: u64,
}

/// Completions per session in an episode. Ten, so that an episode's
/// nearest-rank p90 has a slower request beyond it, and short enough
/// (0.1 s to 0.8 s of a window) that a quiet one exists on a busy machine.
const EPISODE_REQUESTS: usize = 10;

/// Throughput and latency in the quietest episode of a window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quietest {
    /// Correct answers per second, all sessions.
    pub throughput_qps: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
}

impl Timed {
    /// Correct answers per second of measured wall time.
    pub fn throughput_qps(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall_s
    }

    /// The window cut, in completion order, into episodes of
    /// [`EPISODE_REQUESTS`] completions per session; throughput, p50 and
    /// p90 of each episode; and of each of the three the best over the
    /// episodes. The machine is shared: a neighbour's burst makes the
    /// requests it overlaps slower and none faster, so the best episode
    /// is the least contaminated estimate of what the program itself
    /// costs. Pooled over a 20-s window, ten runs of one commit disagreed
    /// by 20-37 % (quartile distance over median) in a busy hour and by
    /// 2-6 % in a quiet one; taken this way, by 4-8 % in the busy hour.
    pub fn quietest(&self) -> Quietest {
        if self.samples.is_empty() {
            return Quietest::default();
        }
        // A window shorter than an episode is one episode.
        let size = (EPISODE_REQUESTS * self.sessions).min(self.samples.len());
        let mut best = Quietest {
            throughput_qps: 0.0,
            p50_ms: f64::INFINITY,
            p90_ms: f64::INFINITY,
        };
        let mut opened_s = 0.0;
        let mut latencies = Vec::with_capacity(size);
        for episode in self.samples.chunks_exact(size) {
            let closed_s = episode[size - 1].0;
            latencies.clear();
            latencies.extend(episode.iter().map(|&(_, ms)| ms));
            latencies.sort_by(f64::total_cmp);
            best.throughput_qps = best.throughput_qps.max(size as f64 / (closed_s - opened_s));
            best.p50_ms = best.p50_ms.min(percentile(&latencies, 50.0));
            best.p90_ms = best.p90_ms.min(percentile(&latencies, 90.0));
            opened_s = closed_s;
        }
        best
    }
}

fn counter(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot.counters.get(name).copied().unwrap_or(0)
}

/// Run `clients` as closed loops for `window`: each sends its next text
/// when the previous answer has been rendered.
pub fn timed_phase(
    server: &Server,
    clients: &mut [Client<'_>],
    hot: &[HotText],
    window: Duration,
) -> Timed {
    let before = server.metrics().snapshot();
    let merged = Mutex::new(Timed::default());
    let barrier = Barrier::new(clients.len());
    let t_start = Instant::now();
    let deadline = t_start + window;
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let (merged, barrier) = (&merged, &barrier);
            scope.spawn(move || {
                let mut local = Timed::default();
                let mut bytes = Vec::new();
                barrier.wait();
                while Instant::now() < deadline {
                    let request = client.schedule.next_request();
                    let text = match &request {
                        Request::Hot(i) => hot[*i].text.as_str(),
                        Request::Adhoc(text) => text.as_str(),
                    };
                    local.attempted += 1;
                    let t0 = Instant::now();
                    let answer = client
                        .session
                        .execute_text(text)
                        .inspect(|a| render(&a.batch, &mut bytes));
                    let latency = t0.elapsed();
                    match answer {
                        Ok(a) => {
                            let done_s = t_start.elapsed().as_secs_f64();
                            local.samples.push((done_s, latency.as_secs_f64() * 1e3));
                            local.server_wall_ns.push(a.wall_ns);
                            let digest = Digest::of_bytes(&bytes);
                            match request {
                                Request::Hot(i) if digest != hot[i].digest => {
                                    local.failed += 1;
                                    local.first_error.get_or_insert(format!(
                                        "hot text {i} answered differently than when verified"
                                    ));
                                }
                                Request::Hot(_) => {}
                                Request::Adhoc(text) => local.adhoc.push((text, digest)),
                            }
                        }
                        Err(e) => {
                            local.failed += 1;
                            local.first_error.get_or_insert(format!("`{text}`: {e}"));
                        }
                    }
                }
                let wall_s = t_start.elapsed().as_secs_f64();
                let mut m = merged.lock().expect("result lock");
                m.wall_s = m.wall_s.max(wall_s);
                m.samples.append(&mut local.samples);
                m.server_wall_ns.append(&mut local.server_wall_ns);
                m.adhoc.append(&mut local.adhoc);
                m.attempted += local.attempted;
                m.failed += local.failed;
                if m.first_error.is_none() {
                    m.first_error = local.first_error;
                }
            });
        }
    });
    let mut timed = merged.into_inner().expect("result lock");
    timed.sessions = clients.len();
    timed.samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    timed.latencies_ms = timed.samples.iter().map(|&(_, ms)| ms).collect();
    timed.latencies_ms.sort_by(f64::total_cmp);
    let after = server.metrics().snapshot();
    let delta = |name| counter(&after, name) - counter(&before, name);
    timed.hits = delta("serve.cache.hits");
    timed.misses = delta("serve.cache.misses");
    timed.evictions = delta("serve.cache.evictions");
    timed.invalidations = delta("serve.cache.invalidations");
    timed.recalibrations = delta("serve.recalibrations");
    timed
}

/// Check a seeded sample of the timed ad-hoc answers against the
/// reference evaluator.
pub fn verify_adhoc_sample(inputs: &Inputs, data: &Built, timed: &mut Timed) -> Result<(), String> {
    let mut picks: Vec<usize> = (0..timed.adhoc.len()).collect();
    Prng::new(inputs.seed ^ 0x7069_636b).shuffle(&mut picks);
    picks.truncate(inputs.adhoc_checks);
    for &i in &picks {
        let (text, digest) = &timed.adhoc[i];
        if reference_digest(&data.db, text)? != *digest {
            timed.failed += 1;
            timed
                .first_error
                .get_or_insert(format!("`{text}`: answer differs from the reference"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_number_comes_from_its_quietest_episode() {
        // One session, three episodes of ten requests taking 1..=10 ms
        // back to back; the second runs at half speed, the third at nine
        // tenths. A trailing partial episode is left out.
        let mut timed = Timed {
            sessions: 1,
            ..Timed::default()
        };
        let mut done_s = 0.0;
        for factor in [1.0, 2.0, 1.1] {
            for i in 1..=EPISODE_REQUESTS {
                let ms = i as f64 * factor;
                done_s += ms / 1e3;
                timed.samples.push((done_s, ms));
            }
        }
        timed.samples.push((done_s + 0.0001, 0.1));
        let q = timed.quietest();
        assert_eq!((q.p50_ms, q.p90_ms), (5.0, 9.0));
        assert!((q.throughput_qps - 10.0 / 0.055).abs() < 1e-6, "{q:?}");

        // Two sessions: twenty completions an episode.
        timed.sessions = 2;
        let q = timed.quietest();
        assert_eq!(q.p50_ms, 7.0);

        // A window shorter than an episode is one episode; none is zeros.
        timed.samples.truncate(4);
        assert_eq!(timed.quietest().p90_ms, 4.0);
        timed.samples.clear();
        assert_eq!(timed.quietest().p50_ms, 0.0);
    }
}
