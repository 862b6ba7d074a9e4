//! Persisting runtime-configured cubes: the Druid deployment model.
//!
//! Section 6 of the paper evaluates the moments sketch *inside* Druid,
//! where pre-aggregated summaries live in serialized segments and query
//! nodes deserialize and merge them. [`DynCube`] reproduces that
//! lifecycle: the sketch backend is a [`SketchSpec`] chosen at runtime
//! (config, CLI, per-table setting), every cell is a boxed
//! [`msketch_sketches::Sketch`], and the whole cube — spec, dictionaries,
//! cells — round-trips through [`DataCube::to_bytes`] /
//! [`DataCube::from_bytes`] using the same tagged per-sketch wire format
//! as `msketch_sketches::api`.
//!
//! # Cube wire layout
//!
//! After a 4-byte header (`'Q'`, `'C'`, version, reserved), all
//! little-endian:
//!
//! 1. the [`SketchSpec`] (kind tag, parameter, seed);
//! 2. ingested row count (`u64`);
//! 3. dimension count (`u32`), then per dimension its name and the
//!    dictionary entries in id order (length-prefixed UTF-8);
//! 4. cell count (`u32`), then per cell its key (`u32` per dimension)
//!    and the cell's encoded sketch (length-prefixed, self-describing).

use crate::cube::{CellStore, DataCube};
use crate::dictionary::Dictionary;
use crate::{Error, Result};
use msketch_sketches::api::{Reader, SketchError, Writer};
use msketch_sketches::{sketch_from_bytes, Sketch, SketchSpec};
use std::sync::Arc;

/// A cube whose sketch backend is chosen at runtime via [`SketchSpec`].
pub type DynCube = DataCube<SketchSpec>;

const CUBE_MAGIC: [u8; 2] = *b"QC";
const CUBE_VERSION: u8 = 1;

fn write_str(w: &mut Writer, s: &str) {
    w.bytes(s.as_bytes());
}

fn read_str(r: &mut Reader<'_>) -> Result<String> {
    let raw = r.bytes().map_err(Error::Wire)?;
    String::from_utf8(raw.to_vec())
        .map_err(|_| Error::Wire(SketchError::Corrupt("non-UTF-8 string")))
}

impl DynCube {
    /// Create a cube whose cells use the runtime-chosen backend.
    ///
    /// Equivalent to `DataCube::new(spec, dim_names)`, but reads better
    /// at call sites where the spec arrives from configuration.
    pub fn from_spec(spec: SketchSpec, dim_names: &[&str]) -> Self {
        DataCube::new(spec, dim_names)
    }

    /// The spec this cube builds cells from.
    pub fn spec(&self) -> &SketchSpec {
        &self.factory
    }

    /// Serialize the entire cube — spec, dictionaries, and every
    /// pre-aggregated cell — to the versioned binary layout above.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64 + self.cells.len() * 64);
        w.u8(CUBE_MAGIC[0]);
        w.u8(CUBE_MAGIC[1]);
        w.u8(CUBE_VERSION);
        w.u8(0);
        self.factory.write_to(&mut w);
        w.u64(self.rows);
        w.u32(self.dims.len() as u32);
        for (dict, name) in self.dims.iter().zip(&self.dim_names) {
            write_str(&mut w, name);
            w.u32(dict.cardinality() as u32);
            for (_, entry) in dict.iter() {
                write_str(&mut w, entry);
            }
        }
        w.u32(self.cells.len() as u32);
        for (key, cell) in self.cells.iter() {
            for &id in key {
                w.u32(id);
            }
            w.bytes(&cell.to_bytes());
        }
        w.into_bytes()
    }

    /// Restore a cube serialized by [`Self::to_bytes`]. Every cell sketch
    /// is validated against the stored spec's kind; corrupt input returns
    /// [`Error::Wire`] instead of panicking.
    pub fn from_bytes(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf);
        let magic = [r.u8().map_err(Error::Wire)?, r.u8().map_err(Error::Wire)?];
        if magic != CUBE_MAGIC {
            return Err(Error::Wire(SketchError::Corrupt("bad cube magic")));
        }
        let version = r.u8().map_err(Error::Wire)?;
        if version != CUBE_VERSION {
            return Err(Error::Wire(SketchError::UnsupportedVersion(version)));
        }
        r.u8().map_err(Error::Wire)?;
        let spec = SketchSpec::read_from(&mut r).map_err(Error::Wire)?;
        let rows = r.u64().map_err(Error::Wire)?;
        // Counts come from untrusted bytes: `Reader::len` bounds each one
        // against the bytes actually remaining (a dimension is at least 8
        // bytes, a dictionary entry 4, a cell `4·dims + 4`), so a corrupt
        // count fails here instead of driving a huge eager allocation.
        let n_dims = r.len(8).map_err(Error::Wire)?;
        let mut dims = Vec::with_capacity(n_dims);
        let mut dim_names = Vec::with_capacity(n_dims);
        for _ in 0..n_dims {
            dim_names.push(read_str(&mut r)?);
            let cardinality = r.len(4).map_err(Error::Wire)?;
            let mut dict = Dictionary::new();
            for _ in 0..cardinality {
                dict.encode(&read_str(&mut r)?);
            }
            dims.push(dict);
        }
        let n_cells = r.len(4 * n_dims + 4).map_err(Error::Wire)?;
        let mut cells = CellStore::with_capacity(n_dims, n_cells);
        for _ in 0..n_cells {
            let mut key = Vec::with_capacity(n_dims);
            for dict in &dims {
                let id = r.u32().map_err(Error::Wire)?;
                if id as usize >= dict.cardinality() {
                    return Err(Error::Wire(SketchError::Corrupt(
                        "cell key outside dictionary",
                    )));
                }
                key.push(id);
            }
            let sketch = sketch_from_bytes(r.bytes().map_err(Error::Wire)?).map_err(Error::Wire)?;
            if sketch.kind() != spec.kind() {
                return Err(Error::Wire(SketchError::KindMismatch {
                    expected: spec.kind(),
                    got: sketch.kind(),
                }));
            }
            cells.put(key, Arc::new(sketch));
        }
        r.finish().map_err(Error::Wire)?;
        Ok(DataCube {
            factory: spec,
            dims,
            dim_names,
            cells,
            rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msketch_sketches::SketchKind;
    use std::collections::HashMap;

    fn runtime_cube(spec: SketchSpec) -> DynCube {
        let mut cube = DynCube::from_spec(spec, &["region", "tier"]);
        for i in 0..6000 {
            let region = ["eu", "us", "ap"][i % 3];
            let tier = ["free", "paid"][i % 2];
            let metric = (i % 500) as f64 + if tier == "paid" { 250.0 } else { 0.0 };
            cube.insert(&[region, tier], metric).unwrap();
        }
        cube
    }

    #[test]
    fn every_kind_roundtrips_a_cube() {
        for kind in SketchKind::ALL {
            let cube = runtime_cube(SketchSpec::default_for(kind));
            let restored =
                DynCube::from_bytes(&cube.to_bytes()).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(restored.spec(), cube.spec(), "{kind}");
            assert_eq!(restored.row_count(), 6000, "{kind}");
            assert_eq!(restored.cell_count(), cube.cell_count(), "{kind}");
            assert_eq!(restored.dim_names(), cube.dim_names(), "{kind}");
            // Every cell answers bit-identically after the byte cycle.
            let restored_cells: HashMap<_, _> = restored.cells().collect();
            for (key, cell) in cube.cells() {
                let back = restored_cells[key];
                assert_eq!(cell.count(), back.count(), "{kind}");
                for phi in [0.1, 0.5, 0.9, 0.99] {
                    assert_eq!(
                        cell.quantile(phi).to_bits(),
                        back.quantile(phi).to_bits(),
                        "{kind} cell {key:?} phi {phi}"
                    );
                }
            }
            // Roll-ups over the restored cube cover all rows. (Quantile
            // estimates of randomized backends may differ slightly here:
            // HashMap merge order is not preserved across cubes.)
            let all = restored.rollup(&restored.no_filter()).unwrap();
            assert_eq!(all.count(), 6000, "{kind}");
            let q = all.quantile(0.5);
            assert!(q.is_finite(), "{kind}: {q}");
        }
    }

    #[test]
    fn restored_cube_keeps_ingesting() {
        let cube = runtime_cube(SketchSpec::moments(8));
        let mut restored = DynCube::from_bytes(&cube.to_bytes()).unwrap();
        restored.insert(&["eu", "paid"], 123.0).unwrap();
        assert_eq!(restored.row_count(), 6001);
        // New dimension values still intern cleanly after the round-trip.
        restored.insert(&["sa", "paid"], 5.0).unwrap();
        assert_eq!(restored.dictionary(0).unwrap().cardinality(), 4);
    }

    #[test]
    fn corrupt_cube_bytes_error() {
        let cube = runtime_cube(SketchSpec::tdigest(5.0));
        let bytes = cube.to_bytes();
        assert!(matches!(
            DynCube::from_bytes(&bytes[..bytes.len() / 2]),
            Err(Error::Wire(_))
        ));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(DynCube::from_bytes(&bad), Err(Error::Wire(_))));
        let mut bad = bytes;
        bad[2] = 9; // version
        assert!(matches!(
            DynCube::from_bytes(&bad),
            Err(Error::Wire(SketchError::UnsupportedVersion(9)))
        ));
    }
}
