//! Workload inputs, all drawn from the run's seed: OCC-5 census microdata
//! (Section 6: the first d = 5 CENSUS attributes as QI, Occupation as the
//! sensitive attribute with λ = 50 values) and the release files
//! published from it.

use crate::Res;
use anatomy_core::{qit_to_csv, st_to_csv, AnatomizedTables};
use anatomy_data::census::{generate_census, CensusConfig};
use anatomy_data::occ_sal::occ_microdata;
use anatomy_tables::{csv, Microdata, Schema};
use std::fs;
use std::path::{Path, PathBuf};

/// QI attributes (Table 7's default d).
pub const D: usize = 5;
/// Diversity parameter (Table 7's default l).
pub const L: usize = 10;

/// `n` tuples of OCC-5 microdata for `seed`, projected to its QI and
/// sensitive columns: the table a data owner hands to `anatomy publish`.
pub fn microdata(n: usize, seed: u64) -> Res<Microdata> {
    let md = occ_microdata(generate_census(&CensusConfig::new(n).with_seed(seed)), D)?;
    let mut cols = md.qi_columns().to_vec();
    cols.push(md.sensitive_column());
    Ok(Microdata::with_leading_qi(md.table().project(&cols)?, D)?)
}

/// The QI columns of a microdata schema: what a release's QIT holds.
pub fn qi_schema(schema: &Schema) -> Res<Schema> {
    Ok(schema.project(&(0..D).collect::<Vec<_>>())?)
}

/// Read a microdata CSV the way `anatomy publish --data` does.
pub fn read_microdata(path: &Path, schema: &Schema) -> Res<Microdata> {
    let table = csv::read_table(schema.clone(), fs::File::open(path)?)?;
    Ok(Microdata::with_leading_qi(table, D)?)
}

/// Write a release as `anatomy publish` does: QIT and ST as CSV files.
pub fn write_release(tables: &AnatomizedTables, qit: &Path, st: &Path) -> Res<()> {
    fs::write(qit, qit_to_csv(tables))?;
    fs::write(st, st_to_csv(tables))?;
    Ok(())
}

/// Bytes of the files at `paths`, summed.
pub fn file_bytes(paths: &[&Path]) -> Res<u64> {
    let mut total = 0;
    for p in paths {
        total += fs::metadata(p)?.len();
    }
    Ok(total)
}

const WORK_ROOT: &str = ".bench_work";

/// The run's own scratch directory under `.bench_work/` in the working
/// directory, removed with everything in it when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(workload: &str) -> Res<WorkDir> {
        let dir = Path::new(WORK_ROOT).join(format!("{workload}-{}", std::process::id()));
        fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Succeeds only when no other run still uses the root.
        let _ = fs::remove_dir(WORK_ROOT);
    }
}
