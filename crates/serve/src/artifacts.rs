//! Fitted-model artifacts: a versioned, dependency-free JSON bundle a
//! server can be cold-started from.
//!
//! What round-trips: the serving schema, the default (majority) class,
//! k-means centroids, the kNN model (training matrix + labels + `k` —
//! reloading refits the index, which is deterministic), the decision
//! tree (full node array, revalidated structurally by
//! `DecisionTree::from_parts` so a corrupt artifact cannot produce a
//! tree that panics or loops), the mined rules, and the top-support
//! singleton vocabulary. Ensembles and naive Bayes deliberately do
//! *not* serialize — they refit in-process; a loaded bundle answers
//! their endpoints with the typed `ModelUnavailable`.
//!
//! Corruption is a first-class input, not an assumed-away case: every
//! load failure is a typed [`ArtifactError`] naming what broke, and
//! the chaos suite feeds this loader truncated, bit-flipped, and
//! wrong-schema bytes to prove it. Floats are written with Rust's
//! shortest-round-trip formatting, so save → load → save is
//! byte-stable.

use crate::api::Recommendation;
use crate::models::ModelSet;
use dm_core::assoc::Rule;
use dm_core::cluster::KMeansModel;
use dm_core::dataset::Matrix;
use dm_core::knn::Knn;
use dm_core::obs::json::{json_string, parse, Json};
use dm_core::tree::{DecisionTree, Node, SplitKind};
use std::fmt;
use std::fmt::Write as _;

/// Version of the artifact bundle schema. Bump on any key change and
/// document it in DESIGN.md ("Serving").
pub const ARTIFACT_SCHEMA: u32 = 1;

/// Why an artifact bundle failed to load — always typed and readable,
/// never a panic, whatever the input bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactError {
    /// The bytes are not valid JSON (message + byte offset).
    Json(String),
    /// Valid JSON, but not a valid bundle; the string names the
    /// offending key or structural rule.
    Shape(String),
    /// The bundle's `artifact_schema` is newer than this build reads.
    SchemaTooNew(u64),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Json(e) => write!(f, "artifact is not valid JSON: {e}"),
            Self::Shape(what) => write!(f, "artifact malformed: {what}"),
            Self::SchemaTooNew(v) => write!(
                f,
                "artifact_schema {v} is newer than this build reads (<= {ARTIFACT_SCHEMA})"
            ),
        }
    }
}

impl std::error::Error for ArtifactError {}

// -- save -------------------------------------------------------------

/// Serializes the bundle's artifact-serializable parts to JSON.
pub fn save_artifacts(models: &ModelSet) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"artifact_schema\": {ARTIFACT_SCHEMA},");
    let _ = write!(out, "  \"schema\": [");
    for (i, name) in models.schema().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}", json_string(name));
    }
    out.push_str("],\n");
    let _ = writeln!(out, "  \"default_class\": {},", models.default_class());
    if let Some(kmeans) = models.kmeans() {
        let _ = writeln!(
            out,
            "  \"kmeans\": {{\"centroids\": {}}},",
            matrix_json(&kmeans.centroids)
        );
    }
    if let Some(knn) = models.knn() {
        let _ = writeln!(
            out,
            "  \"knn\": {{\"k\": {}, \"train\": {}, \"labels\": {}}},",
            knn.k(),
            matrix_json(knn.train()),
            ints_json(knn.labels())
        );
    }
    if let Some(tree) = models.tree() {
        let _ = writeln!(out, "  \"tree\": {},", tree_json(tree));
    }
    out.push_str("  \"rules\": [");
    for (i, rule) in models.rules().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"antecedent\": {}, \"consequent\": {}, \"support\": {}, \"confidence\": {}, \"lift\": {}}}",
            ints_json(&rule.antecedent),
            ints_json(&rule.consequent),
            rule.support,
            rule.confidence,
            rule.lift
        );
    }
    out.push_str("],\n");
    out.push_str("  \"singletons\": [");
    for (i, rec) in models.top_singletons().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "[{}, {}]", rec.item, rec.score as u64);
    }
    out.push_str("]\n}\n");
    out
}

fn matrix_json(m: &Matrix) -> String {
    let mut out = String::from("[");
    for r in 0..m.rows() {
        if r > 0 {
            out.push_str(", ");
        }
        out.push('[');
        for (c, v) in m.row(r).iter().enumerate() {
            if c > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{v}");
        }
        out.push(']');
    }
    out.push(']');
    out
}

fn ints_json(values: &[u32]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

fn counts_json(values: &[usize]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

fn tree_json(tree: &DecisionTree) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"root\": {}, \"n_classes\": {}, \"attr_names\": [",
        tree.root_id(),
        tree.n_classes()
    );
    for (i, name) in tree.attr_names().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}", json_string(name));
    }
    out.push_str("], \"nodes\": [");
    for (i, node) in tree.nodes().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match node {
            Node::Leaf { class, counts } => {
                let _ = write!(
                    out,
                    "{{\"leaf\": {{\"class\": {class}, \"counts\": {}}}}}",
                    counts_json(counts)
                );
            }
            Node::Split {
                attr,
                spec,
                children,
                default_child,
                majority,
                counts,
            } => {
                let spec_json = match spec {
                    SplitKind::NumericThreshold { threshold } => {
                        format!("{{\"kind\": \"num\", \"threshold\": {threshold}}}")
                    }
                    SplitKind::CategoricalMultiway { categories } => {
                        format!(
                            "{{\"kind\": \"multi\", \"categories\": {}}}",
                            ints_json(categories)
                        )
                    }
                    SplitKind::CategoricalEquals { category } => {
                        format!("{{\"kind\": \"eq\", \"category\": {category}}}")
                    }
                };
                let _ = write!(
                    out,
                    "{{\"split\": {{\"attr\": {attr}, \"spec\": {spec_json}, \
                     \"children\": {}, \"default_child\": {default_child}, \
                     \"majority\": {majority}, \"counts\": {}}}}}",
                    counts_json(children),
                    counts_json(counts)
                );
            }
        }
    }
    out.push_str("]}");
    out
}

// -- load -------------------------------------------------------------

type Load<T> = Result<T, ArtifactError>;

fn shape<T>(msg: impl Into<String>) -> Load<T> {
    Err(ArtifactError::Shape(msg.into()))
}

fn get_u64(doc: &Json, key: &str) -> Load<u64> {
    doc.get(key)
        .and_then(Json::as_u64)
        .map_or_else(|| shape(format!("missing or non-integer `{key}`")), Ok)
}

fn get_f64(doc: &Json, key: &str) -> Load<f64> {
    let v = doc
        .get(key)
        .and_then(Json::as_f64)
        .map_or_else(|| shape(format!("missing or non-number `{key}`")), Ok)?;
    if !v.is_finite() {
        return shape(format!("`{key}` is not finite"));
    }
    Ok(v)
}

fn get_arr<'a>(doc: &'a Json, key: &str) -> Load<&'a [Json]> {
    doc.get(key)
        .and_then(Json::as_arr)
        .map_or_else(|| shape(format!("missing or non-array `{key}`")), Ok)
}

fn floats(arr: &[Json], what: &str) -> Load<Vec<f64>> {
    arr.iter()
        .map(|v| {
            let f = v
                .as_f64()
                .map_or_else(|| shape(format!("non-number in {what}")), Ok)?;
            if !f.is_finite() {
                return shape(format!("non-finite number in {what}"));
            }
            Ok(f)
        })
        .collect()
}

fn u32s(arr: &[Json], what: &str) -> Load<Vec<u32>> {
    arr.iter()
        .map(|v| {
            v.as_u64()
                .and_then(|x| u32::try_from(x).ok())
                .map_or_else(|| shape(format!("non-u32 in {what}")), Ok)
        })
        .collect()
}

fn usizes(arr: &[Json], what: &str) -> Load<Vec<usize>> {
    arr.iter()
        .map(|v| {
            v.as_u64()
                .and_then(|x| usize::try_from(x).ok())
                .map_or_else(|| shape(format!("non-integer in {what}")), Ok)
        })
        .collect()
}

fn load_matrix(doc: &Json, key: &str, what: &str) -> Load<Matrix> {
    let rows_json = get_arr(doc, key)?;
    let mut rows = Vec::with_capacity(rows_json.len());
    for row in rows_json {
        let row = row
            .as_arr()
            .map_or_else(|| shape(format!("non-array row in {what}")), Ok)?;
        rows.push(floats(row, what)?);
    }
    Matrix::from_rows(&rows).map_err(|e| ArtifactError::Shape(format!("{what}: {e}")))
}

/// Deserializes a bundle saved by [`save_artifacts`]. Every structural
/// defect — invalid JSON, wrong schema version, missing keys, a tree
/// with dangling children or cycles, dimension mismatches — comes back
/// as a typed [`ArtifactError`].
pub fn load_artifacts(text: &str) -> Load<ModelSet> {
    let doc = parse(text).map_err(|e| ArtifactError::Json(e.to_string()))?;
    let version = get_u64(&doc, "artifact_schema")?;
    if version > u64::from(ARTIFACT_SCHEMA) {
        return Err(ArtifactError::SchemaTooNew(version));
    }
    let schema: Vec<String> = get_arr(&doc, "schema")?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .map_or_else(|| shape("non-string in `schema`"), Ok)
        })
        .collect::<Load<_>>()?;
    if schema.is_empty() {
        return shape("`schema` must name at least one feature");
    }
    let default_class = u32::try_from(get_u64(&doc, "default_class")?)
        .map_err(|_| ArtifactError::Shape("`default_class` exceeds u32".into()))?;
    let mut models = ModelSet::new(schema.clone()).with_default_class(default_class);

    if let Some(kmeans_doc) = doc.get("kmeans") {
        let centroids = load_matrix(kmeans_doc, "centroids", "kmeans centroids")?;
        if centroids.cols() != schema.len() {
            return shape(format!(
                "kmeans centroids have {} dims, schema has {}",
                centroids.cols(),
                schema.len()
            ));
        }
        let model = KMeansModel::from_centroids(centroids)
            .map_err(|e| ArtifactError::Shape(format!("kmeans: {e}")))?;
        models = models.with_kmeans(model);
    }

    if let Some(knn_doc) = doc.get("knn") {
        let k = usize::try_from(get_u64(knn_doc, "k")?)
            .map_err(|_| ArtifactError::Shape("knn `k` out of range".into()))?;
        let train = load_matrix(knn_doc, "train", "knn train")?;
        if train.cols() != schema.len() {
            return shape(format!(
                "knn train has {} dims, schema has {}",
                train.cols(),
                schema.len()
            ));
        }
        let labels = u32s(get_arr(knn_doc, "labels")?, "knn labels")?;
        let model = Knn::new(k)
            .fit(&train, &labels)
            .map_err(|e| ArtifactError::Shape(format!("knn refit: {e}")))?;
        models = models.with_knn(model);
    }

    if let Some(tree_doc) = doc.get("tree") {
        models = models.with_tree(load_tree(tree_doc)?);
    }

    let mut rules = Vec::new();
    for rule_doc in get_arr(&doc, "rules")? {
        rules.push(Rule {
            antecedent: u32s(get_arr(rule_doc, "antecedent")?, "rule antecedent")?,
            consequent: u32s(get_arr(rule_doc, "consequent")?, "rule consequent")?,
            support: get_f64(rule_doc, "support")?,
            confidence: get_f64(rule_doc, "confidence")?,
            lift: get_f64(rule_doc, "lift")?,
        });
    }
    let mut singletons = Vec::new();
    for pair in get_arr(&doc, "singletons")? {
        let pair = pair
            .as_arr()
            .map_or_else(|| shape("non-array entry in `singletons`"), Ok)?;
        if pair.len() != 2 {
            return shape("`singletons` entries must be [item, count]");
        }
        let item = pair[0]
            .as_u64()
            .and_then(|x| u32::try_from(x).ok())
            .map_or_else(|| shape("non-u32 item in `singletons`"), Ok)?;
        let count = pair[1]
            .as_u64()
            .map_or_else(|| shape("non-integer count in `singletons`"), Ok)?;
        singletons.push((item, count as usize));
    }
    Ok(models.with_rules(rules, singletons))
}

fn load_tree(doc: &Json) -> Load<DecisionTree> {
    let root = usize::try_from(get_u64(doc, "root")?)
        .map_err(|_| ArtifactError::Shape("tree `root` out of range".into()))?;
    let n_classes = usize::try_from(get_u64(doc, "n_classes")?)
        .map_err(|_| ArtifactError::Shape("tree `n_classes` out of range".into()))?;
    let attr_names: Vec<String> = get_arr(doc, "attr_names")?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .map_or_else(|| shape("non-string in tree `attr_names`"), Ok)
        })
        .collect::<Load<_>>()?;
    let mut nodes = Vec::new();
    for node_doc in get_arr(doc, "nodes")? {
        if let Some(leaf) = node_doc.get("leaf") {
            let class = u32::try_from(get_u64(leaf, "class")?)
                .map_err(|_| ArtifactError::Shape("leaf `class` exceeds u32".into()))?;
            let counts = usizes(get_arr(leaf, "counts")?, "leaf counts")?;
            nodes.push(Node::Leaf { class, counts });
        } else if let Some(split) = node_doc.get("split") {
            let attr = usize::try_from(get_u64(split, "attr")?)
                .map_err(|_| ArtifactError::Shape("split `attr` out of range".into()))?;
            let spec_doc = split
                .get("spec")
                .map_or_else(|| shape("split missing `spec`"), Ok)?;
            let kind = spec_doc
                .get("kind")
                .and_then(Json::as_str)
                .map_or_else(|| shape("split spec missing `kind`"), Ok)?;
            let spec = match kind {
                "num" => SplitKind::NumericThreshold {
                    threshold: get_f64(spec_doc, "threshold")?,
                },
                "multi" => SplitKind::CategoricalMultiway {
                    categories: u32s(get_arr(spec_doc, "categories")?, "spec categories")?,
                },
                "eq" => SplitKind::CategoricalEquals {
                    category: u32::try_from(get_u64(spec_doc, "category")?)
                        .map_err(|_| ArtifactError::Shape("spec `category` exceeds u32".into()))?,
                },
                other => return shape(format!("unknown split kind `{other}`")),
            };
            let children = usizes(get_arr(split, "children")?, "split children")?;
            let default_child = usize::try_from(get_u64(split, "default_child")?)
                .map_err(|_| ArtifactError::Shape("split `default_child` out of range".into()))?;
            let majority = u32::try_from(get_u64(split, "majority")?)
                .map_err(|_| ArtifactError::Shape("split `majority` exceeds u32".into()))?;
            let counts = usizes(get_arr(split, "counts")?, "split counts")?;
            nodes.push(Node::Split {
                attr,
                spec,
                children,
                default_child,
                majority,
                counts,
            });
        } else {
            return shape("tree node is neither `leaf` nor `split`");
        }
    }
    DecisionTree::from_parts(nodes, root, n_classes, attr_names)
        .map_err(|e| ArtifactError::Shape(e.to_string()))
}

/// Round-trip convenience: loads from a file path (the `dm`-adjacent
/// tooling and experiments use string paths throughout).
pub fn load_artifacts_file(path: &std::path::Path) -> Load<ModelSet> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ArtifactError::Json(format!("cannot read {}: {e}", path.display())))?;
    load_artifacts(&text)
}

/// The singleton `Recommendation` list re-expressed as `(item, count)`
/// pairs (what [`ModelSet::with_rules`] takes) — used by round-trip
/// tests.
pub fn singleton_pairs(recs: &[Recommendation]) -> Vec<(u32, usize)> {
    recs.iter().map(|r| (r.item, r.score as usize)).collect()
}
