//! The graph catalog: named, preprocessed, reference-counted graphs.
//!
//! One [`Catalog`] type serves every front-end: [`crate::Service`] loads
//! and unloads graphs through it at run time, and every [`crate::Daemon`]
//! rank opens whatever is already preprocessed under `<base>/graphs/`.

use dfo_core::Cluster;
use dfo_graph::EdgeList;
use dfo_obs::Registry;
use dfo_part::plan::Plan;
use dfo_types::{DfoError, EngineConfig, Pod, Result};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// One loaded graph: its name, the [`Cluster`] whose disks hold the
/// preprocessed chunks (rooted at `<service base>/graphs/<name>/`), and the
/// replicated [`Plan`].
///
/// Entries are handed out as `Arc<CatalogEntry>`: a running job keeps its
/// graph alive even if [`crate::Service::unload_graph`] removes the name
/// from the catalog mid-run — the entry (and its chunk caches) drop when
/// the last job over it finishes.
pub struct CatalogEntry {
    pub(crate) name: String,
    pub(crate) cluster: Cluster,
    pub(crate) plan: Plan,
}

impl std::fmt::Debug for CatalogEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CatalogEntry")
            .field("name", &self.name)
            .field("n_vertices", &self.plan.n_vertices)
            .finish()
    }
}

impl CatalogEntry {
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The preprocessing plan (vertex count, partitioning, edge payload
    /// width) jobs over this graph are validated against.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The underlying cluster — exposed so callers can still run batch-mode
    /// [`Cluster::run`] closures over a catalog graph (the migration path),
    /// and so tests can compare service jobs against batch results on the
    /// very same preprocessed disks.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }
}

/// The named graphs of one service root. Each graph lives in its own
/// [`Cluster`] at `<base>/graphs/<name>/` and feeds the shared `registry`
/// under a `graph=<name>` label.
pub(crate) struct Catalog {
    cfg: EngineConfig,
    base: PathBuf,
    registry: Arc<Registry>,
    graphs: Mutex<BTreeMap<String, Arc<CatalogEntry>>>,
}

impl Catalog {
    pub fn new(cfg: EngineConfig, base: PathBuf, registry: Arc<Registry>) -> Self {
        Self { cfg, base, registry, graphs: Mutex::new(BTreeMap::new()) }
    }

    fn dir(&self, name: &str) -> PathBuf {
        self.base.join("graphs").join(name)
    }

    fn check_free(graphs: &BTreeMap<String, Arc<CatalogEntry>>, name: &str) -> Result<()> {
        if graphs.contains_key(name) {
            return Err(DfoError::Config(format!("graph {name:?} is already loaded")));
        }
        Ok(())
    }

    /// Creates the graph's cluster, obtains its plan with `plan_of` and
    /// inserts the entry. `plan_of` runs outside the catalog lock (it may
    /// preprocess, which is slow); the name is checked again before insert,
    /// so a concurrent load of the same name errors rather than replacing
    /// an entry jobs may already hold.
    fn insert(
        &self,
        name: &str,
        plan_of: impl FnOnce(&Cluster) -> Result<Plan>,
    ) -> Result<Arc<CatalogEntry>> {
        validate_name(name)?;
        Self::check_free(&self.graphs.lock(), name)?;
        let cluster = Cluster::create_with_registry(
            self.cfg.clone(),
            self.dir(name),
            self.registry.clone(),
            &[("graph", name)],
        )?;
        let plan = plan_of(&cluster)?;
        let entry = Arc::new(CatalogEntry { name: name.to_string(), cluster, plan });
        let mut graphs = self.graphs.lock();
        Self::check_free(&graphs, name)?;
        graphs.insert(name.to_string(), entry.clone());
        Ok(entry)
    }

    /// Preprocesses `g` under `name` and adds it.
    pub fn load<E: Pod + PartialEq>(
        &self,
        name: &str,
        g: &EdgeList<E>,
    ) -> Result<Arc<CatalogEntry>> {
        self.insert(name, |cluster| cluster.preprocess(g))
    }

    /// Attaches the already-preprocessed graph directory of `name` — plan
    /// reload only.
    pub fn open(&self, name: &str) -> Result<Arc<CatalogEntry>> {
        validate_name(name)?;
        let dir = self.dir(name);
        if !dir.is_dir() {
            return Err(DfoError::Config(format!(
                "graph {name:?} has no preprocessed directory at {}",
                dir.display()
            )));
        }
        self.insert(name, |cluster| Plan::load(&cluster.disks()[0]))
    }

    /// Opens every preprocessed graph under `<base>/graphs/` (directories
    /// whose names are not valid graph names are skipped); finding none is
    /// an error — a daemon with nothing to serve is a misconfiguration.
    pub fn open_all(&self) -> Result<()> {
        let dir = self.base.join("graphs");
        for entry in std::fs::read_dir(&dir).into_iter().flatten() {
            let entry = entry.map_err(|e| DfoError::io("listing graphs directory", e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if entry.path().is_dir() && validate_name(&name).is_ok() {
                self.open(&name)?;
            }
        }
        if self.graphs.lock().is_empty() {
            return Err(DfoError::Config(format!(
                "no preprocessed graphs under {}",
                dir.display()
            )));
        }
        Ok(())
    }

    pub fn unload(&self, name: &str) -> Result<()> {
        self.graphs
            .lock()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| DfoError::Config(format!("graph {name:?} is not loaded")))
    }

    pub fn get(&self, name: &str) -> Option<Arc<CatalogEntry>> {
        self.graphs.lock().get(name).cloned()
    }

    /// Loaded graph names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.graphs.lock().keys().cloned().collect()
    }
}

/// Catalog names become path components (`<base>/graphs/<name>/`), so
/// constrain them to filesystem-safe characters.
pub(crate) fn validate_name(name: &str) -> Result<()> {
    let ok = !name.is_empty()
        && name.len() <= 128
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        && !name.starts_with('.');
    if !ok {
        return Err(DfoError::Config(format!(
            "graph name {name:?} must be 1-128 chars of [A-Za-z0-9._-], not starting with '.'"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_path_safe() {
        assert!(validate_name("twitter-2010").is_ok());
        assert!(validate_name("g_1.sym").is_ok());
        assert!(validate_name("").is_err());
        assert!(validate_name("../escape").is_err());
        assert!(validate_name("a/b").is_err());
        assert!(validate_name(".hidden").is_err());
    }
}
