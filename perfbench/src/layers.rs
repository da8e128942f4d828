//! The traced replays: training split into the stages
//! `Soteria::train_with_metrics` runs, and each distinct request split into
//! the public functions of every layer it passes, with a sequential
//! `Soteria::screen_binary` of the same bytes as the reference.

use crate::trace::timed;
use soteria::{AeDetector, FamilyClassifier, Soteria, SoteriaConfig, Verdict};
use soteria_cfg::{CentralityFactors, Cfg};
use soteria_corpus::{disasm, Binary, Corpus};
use soteria_features::labeling::{label_nodes_with, NodeKeys};
use soteria_features::{FeatureExtractor, Labeling, SampleFeatures};
use soteria_serve::request_seed;
use soteria_telemetry::{Trace, TraceBuilder};

/// Trains exactly as `Soteria::train_with_metrics` does — fit, extract,
/// detector, classifier with the same derived seeds — with one span per
/// stage under a `train` root.
pub fn traced_train(
    config: &SoteriaConfig,
    corpus: &Corpus,
    train: &[usize],
    seed: u64,
) -> (Soteria, Trace) {
    let mut trace = TraceBuilder::new(0);
    let root = trace.begin("train", None);
    let graphs: Vec<&Cfg> = train.iter().map(|&i| corpus.samples()[i].graph()).collect();
    let labels: Vec<usize> = train
        .iter()
        .map(|&i| corpus.samples()[i].av_label().index())
        .collect();
    let extractor = timed(&mut trace, "features.fit", Some(root), || {
        FeatureExtractor::fit_stratified(&config.extractor, &graphs, &labels, config.classes, seed)
    });
    let features = timed(&mut trace, "features.extract_batch", Some(root), || {
        extractor.extract_batch_isolated(&graphs, seed ^ 0xFEA7, &config.guards)
    });
    let features: Vec<SampleFeatures> = features
        .into_iter()
        .map(|r| r.expect("training samples extract cleanly"))
        .collect();
    let combined: Vec<Vec<f64>> = features.iter().map(|f| f.combined().to_vec()).collect();
    let detector = timed(&mut trace, "core.detector_train", Some(root), || {
        AeDetector::train_balanced(&config.detector, &combined, &labels, seed ^ 0xDE7)
    });
    let classifier = timed(&mut trace, "core.classifier_train", Some(root), || {
        FamilyClassifier::train(
            &config.classifier,
            &features,
            &labels,
            config.classes,
            seed ^ 0xC1F,
        )
    });
    trace.end(root);
    let model = Soteria::from_parts(config.clone(), extractor, detector, classifier);
    (model, trace.finish())
}

/// Rows the auto-encoder fits per epoch under `AeDetector::train_balanced`:
/// every `round(1 / validation_fraction)`-th sample is held out for the
/// threshold, and each class is replicated up to the largest class
/// (at most 8×).
pub fn ae_fit_rows(labels: &[usize], validation_fraction: f64) -> usize {
    let every = if validation_fraction > 0.0 {
        ((1.0 / validation_fraction).round() as usize).max(2)
    } else {
        usize::MAX
    };
    let fit = |i: usize| every == usize::MAX || i % every != every - 1;
    let classes = labels.iter().max().map_or(1, |&m| m + 1);
    let mut counts = vec![0usize; classes];
    for (i, &l) in labels.iter().enumerate() {
        if fit(i) {
            counts[l] += 1;
        }
    }
    let max = counts.iter().copied().max().unwrap_or(1);
    counts
        .iter()
        .map(|&c| {
            if c == 0 {
                0
            } else {
                c * max.div_ceil(c).clamp(1, 8)
            }
        })
        .sum()
}

/// Graph size of one replayed request (the reachable subgraph every layer
/// after disassembly works on).
#[derive(Debug, Clone, Copy)]
pub struct GraphSize {
    pub nodes: usize,
    pub edges: usize,
}

/// Replays one request through every layer under a `request` root:
/// parse → lift → reachable → centrality → labeling → extract → detector
/// → classifier (only when the detector passes the sample). Then screens
/// the same bytes with `screen_binary` as the reference, a second root
/// stage of the same trace, and returns that verdict after checking the
/// replay reached the same decision. The trace's id is `request`.
pub fn replay_request(
    model: &mut Soteria,
    bytes: &[u8],
    service_seed: u64,
    request: u64,
) -> (Verdict, GraphSize, Trace) {
    let seed = request_seed(service_seed, bytes);
    let mut trace = TraceBuilder::new(request);
    let root = trace.begin("request", None);
    let parent = Some(root);
    let binary = timed(&mut trace, "corpus.parse", parent, || {
        Binary::parse(bytes).expect("generated binaries parse")
    });
    let lifted = timed(&mut trace, "corpus.lift", parent, || {
        disasm::lift(&binary).expect("generated binaries lift")
    });
    let cfg = lifted.cfg;
    let (reachable, _) = timed(&mut trace, "cfg.reachable", parent, || {
        cfg.reachable_subgraph()
    });
    timed(&mut trace, "cfg.centrality", parent, || {
        std::hint::black_box(CentralityFactors::compute(&reachable))
    });
    timed(&mut trace, "features.labeling", parent, || {
        let keys = NodeKeys::compute(&reachable);
        std::hint::black_box((
            label_nodes_with(&reachable, Labeling::Density, &keys),
            label_nodes_with(&reachable, Labeling::Level, &keys),
        ))
    });
    let features = timed(&mut trace, "features.extract", parent, || {
        model.extractor().extract(&cfg, seed)
    });
    let errors = timed(&mut trace, "core.detector", parent, || {
        model
            .detector_mut()
            .reconstruction_errors_of(&[features.combined()])
    });
    let adversarial = errors[0] > model.detector_ref().stats().threshold();
    let family = (!adversarial).then(|| {
        let reports = timed(&mut trace, "core.classifier", parent, || {
            model.classifier_mut().classify_batch(&[&features])
        });
        reports[0].voted_label
    });
    trace.end(root);
    let verdict = timed(&mut trace, "core.screen_binary", None, || {
        model.screen_binary(bytes, seed)
    });
    assert_eq!(
        (verdict.is_adversarial(), verdict.family()),
        (adversarial, family),
        "layer replay disagrees with screen_binary on request {request}"
    );
    let size = GraphSize {
        nodes: reachable.node_count(),
        edges: reachable.edge_count(),
    };
    (verdict, size, trace.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_rows_follow_the_balancing_rule() {
        // validation 0.25 holds out every 4th sample: indices 3 and 7.
        // Fit counts: class 0 -> 5, class 1 -> 1; class 1 is replicated 5x.
        let labels = [0, 0, 0, 0, 0, 0, 1, 1];
        assert_eq!(ae_fit_rows(&labels, 0.25), 5 + 5);
        // Without validation every sample fits; the cap is 8x.
        let skewed: Vec<usize> = std::iter::repeat_n(0, 20).chain([1]).collect();
        assert_eq!(ae_fit_rows(&skewed, 0.0), 20 + 8);
    }
}
