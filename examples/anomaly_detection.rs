//! Continuous trajectory monitoring — the streaming face of the
//! anomaly-detection application the paper's introduction motivates.
//!
//! A fleet's historical routes sit in the serving index; live movers
//! arrive one GPS point at a time. Each appended point costs one
//! incremental RNN step (`append_point`), keeping every mover's
//! embedding — and its slot in the index — current. Every mover has an
//! *assigned* route (the fleet schedule), and the monitor scores the
//! mover's last few points by exact windowed DTW against the aligned
//! stretch of that assignment; sustained divergence fires a live alert.
//! At alert time the index answers the dispatch question — "what does
//! this mover's behaviour resemble now?" — with a sliding-window
//! similarity query (`query_window`) over the live embedding. The exact
//! prefix oracle (`prefix_distances`) then pins down *when* the flagged
//! trajectory diverged.
//!
//! Run with: `cargo run --release --example anomaly_detection`

use std::time::Instant;
use tmn::prelude::*;
use tmn_serve::{ServeConfig, ServeEngine, ShardSetConfig};

/// Sliding window (points) the live queries embed and the refine scores.
const WINDOW: usize = 16;
const PROBE_EVERY: usize = 4;

/// Deterministic GPS jitter in [-amp, amp].
fn jitter(seed: u64, amp: f64) -> f64 {
    let h = tmn_index::splitmix64(seed);
    ((h % 10_000) as f64 / 10_000.0 * 2.0 - 1.0) * amp
}

fn main() {
    // 1. Historical fleet + live movers. Clean movers re-drive a known
    //    route under GPS jitter; anomalous movers follow a route for 15
    //    points and are then hijacked onto an erratic oscillation no
    //    road-bound taxi produces.
    let ds = Dataset::generate(&DatasetConfig::new(DatasetKind::PortoLike, 300, 23));
    // Movers re-drive routes long enough that the monitor sees full clean
    // windows before any hijack (generated lengths span 16..96 points).
    let long_routes: Vec<usize> =
        (0..ds.test.len()).filter(|&i| ds.test[i].len() >= 2 * WINDOW).collect();
    // Fleet context: every mover has an *assigned* route (a schedule);
    // the monitor scores live windows against the assignment.
    let route_id = |m: usize| long_routes[(m * 7 + 1) % long_routes.len()];
    let route = |m: usize| &ds.test[route_id(m)];
    let n_clean = 9usize;
    let n_anomalies = 3usize;
    let mut movers: Vec<Trajectory> = Vec::new();
    for m in 0..n_clean {
        movers.push(
            route(m)
                .points()
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let s = (m * 1000 + i) as u64;
                    Point::new(p.lon + jitter(s, 2e-3), p.lat + jitter(s ^ 0xabcd, 2e-3))
                })
                .collect(),
        );
    }
    for k in 0..n_anomalies {
        let src = route(n_clean + k);
        let hijack_at = (src.len() * 3 / 4).max(WINDOW + 4);
        let mut t: Vec<Point> = src.points()[..hijack_at.min(src.len())]
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let s = ((n_clean + k) * 1000 + i) as u64;
                Point::new(p.lon + jitter(s, 2e-3), p.lat + jitter(s ^ 0xabcd, 2e-3))
            })
            .collect();
        let freq = 2.0 + k as f64 * 1.5;
        for i in 0..20 {
            let s = i as f64 / 19.0;
            let osc = (s * freq * std::f64::consts::TAU + k as f64).sin() * 0.5 + 0.5;
            t.push(Point::new(osc, 1.0 - osc * (0.7 + 0.05 * k as f64)));
        }
        movers.push(Trajectory::new(t));
    }

    // 2. Train an encoder on the (clean) training set; its embeddings
    //    drive the index the filter stage queries.
    let params = MetricParams::default();
    let metric = Metric::Dtw;
    let dmat = ds.train_distance_matrix(metric, &params, 2);
    let model_cfg = ModelConfig { dim: 32, seed: 4 };
    let model = ModelKind::TmnNm.build(&model_cfg);
    let cfg = TrainConfig { epochs: 5, ..Default::default() };
    let mut trainer = Trainer::new(
        model.as_ref(), &ds.train, &dmat, metric, params, Box::new(RankSampler), cfg, None,
    );
    println!("training encoder under {metric}...");
    trainer.train();
    drop(trainer);
    let weights = tmn_core::checkpoint::save_params(model.params());

    // 3. Stand up the serving engine over the historical corpus with the
    //    trained weights. A small reembed_min_delta skips index churn
    //    while a mover's embedding is only jittering.
    tmn_obs::metrics::set_enabled(true);
    tmn_obs::metrics::reset();
    let engine = ServeEngine::start_with_params(
        ModelKind::TmnNm,
        &model_cfg,
        ServeConfig {
            shard: ShardSetConfig { shards: 2, shortlist: 48 },
            max_batch: 16,
            reembed_min_delta: 1e-3,
        },
        weights.to_vec(),
    )
    .expect("start serving engine");
    let h = engine.handle();
    for (id, t) in ds.test.iter().enumerate() {
        h.insert(id as u64, t.clone()).expect("historical insert");
    }

    // 4. The monitoring loop. Every appended point steps the live
    //    embedding (one incremental RNN step inside the engine); every
    //    few points the monitor scores the mover's last WINDOW points by
    //    exact DTW against the index-aligned stretch of its assigned
    //    route. When sustained divergence crosses the flag threshold the
    //    alert fires *live*, and the serving index answers the dispatch
    //    question — "what does this mover's behaviour resemble now?" —
    //    via a sliding-window similarity query over the live embedding.
    let t0 = Instant::now();
    let mut appends = 0usize;
    let mut live: Vec<Trajectory> = vec![Trajectory::default(); movers.len()];
    let mut scores = vec![0.0f64; movers.len()];
    let mut best = vec![f64::INFINITY; movers.len()];
    let mut alerted = vec![false; movers.len()];
    let window_dtw = |a: &Trajectory, b_full: &Trajectory, upto: usize| {
        let b = b_full.prefix(upto.min(b_full.len())).last_window(WINDOW);
        metric.distance(&a.last_window(WINDOW), &b, &params) / WINDOW as f64
    };
    // The flag signature is *relative*: a mover that tracked its route
    // closely (low `best`) and sustainedly no longer does. One odd window
    // is GPS noise; the exponential smoothing rides those out.
    let is_flagged = |score: f64, best: f64| score > 0.05 && score > 15.0 * best.max(1e-4);
    let max_len = movers.iter().map(|t| t.len()).max().unwrap();
    for step in 0..max_len {
        for (m, t) in movers.iter().enumerate() {
            if step >= t.len() {
                continue;
            }
            let id = 10_000 + m as u64;
            h.append_point(id, t[step]).expect("append");
            live[m].push(t[step]);
            appends += 1;
            if step + 1 < WINDOW || (step + 1) % PROBE_EVERY != 0 {
                continue;
            }
            let score = window_dtw(&live[m], &ds.test[route_id(m)], step + 1);
            best[m] = best[m].min(score);
            scores[m] = 0.5 * scores[m] + 0.5 * score;
            if is_flagged(scores[m], best[m]) && !alerted[m] {
                alerted[m] = true;
                let hits = h.query_window(id, WINDOW, 3).expect("window query");
                let near: Vec<u64> =
                    hits.iter().map(|&(hid, _)| hid).filter(|&hid| hid < 10_000).collect();
                println!(
                    "  ALERT at point {}: mover {m} left route #{} \
                     (divergence {:.4}, was {:.4}); behaviour now nearest routes {:?}",
                    step + 1,
                    route_id(m),
                    scores[m],
                    best[m],
                    near
                );
            }
        }
    }
    let monitor_secs = t0.elapsed().as_secs_f64();
    let snap = tmn_obs::metrics::snapshot();
    println!(
        "replayed {appends} points across {} movers in {monitor_secs:.2}s \
         ({} of {} appends re-indexed under reembed_min_delta)",
        movers.len(),
        snap.counter(tmn_serve::STREAM_REINDEX_TOTAL).unwrap_or(0),
        snap.counter(tmn_serve::STREAM_APPENDS_TOTAL).unwrap_or(0),
    );

    // 5. Recap the final state and assert the alerts landed exactly on
    //    the hijacked movers — no false alarms on jittering clean movers.
    println!("movers by sustained window divergence from their assigned route:");
    let mut ranked: Vec<usize> = (0..movers.len()).collect();
    ranked.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
    for &m in &ranked {
        let marker = if m >= n_clean { "  <-- injected" } else { "" };
        let flag = if alerted[m] { " FLAGGED" } else { "" };
        println!(
            "  mover {m}: {:.5} (best while tracking {:.5}, route #{}){flag}{marker}",
            scores[m],
            best[m],
            route_id(m)
        );
    }
    let flagged: Vec<usize> = (0..movers.len()).filter(|&m| alerted[m]).collect();
    assert_eq!(
        flagged,
        (n_clean..n_clean + n_anomalies).collect::<Vec<_>>(),
        "continuous monitor must flag exactly the hijacked movers"
    );

    // 6. The exact prefix oracle pins down *when* the first flagged mover
    //    left its route: per-step prefix-DTW stays at jitter level until
    //    the hijack point, then grows.
    let m = flagged[0];
    let hist = &ds.test[route_id(m)];
    let curve = prefix_distances(metric, &movers[m], hist, 5, &params);
    println!("exact prefix-{metric} oracle, mover {m} vs route #{}:", route_id(m));
    for &(i, d) in &curve {
        println!("  first {i:>2} points: {:.5} per step", d / i as f64);
    }
    let per_step: Vec<f64> = curve.iter().map(|&(i, d)| d / i as f64).collect();
    assert!(
        per_step.last().unwrap() > &(per_step.first().unwrap() * 10.0),
        "hijacked mover's exact divergence did not grow: {per_step:?}"
    );

    engine.shutdown();
}
