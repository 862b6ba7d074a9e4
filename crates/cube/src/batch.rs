//! Columnar row batches with batch-local dictionary encoding.
//!
//! Row-at-a-time ingestion pays two string hash lookups per row (one per
//! dimension dictionary). A [`ColumnarBatch`] encodes each dimension
//! column once against a *batch-local* pool of distinct values as rows
//! are appended, so the cube-side ingest
//! ([`crate::DataCube::insert_batch`]) touches each distinct string once
//! per batch — every remaining per-row step is integer work. Batches are
//! also the unit shipped over channels by the sharded ingestion engine:
//! a pool of distinct strings plus `u32` indices crosses threads far
//! cheaper than one owned string per row per dimension.

use crate::hash::FxHashMap;

/// One dimension column of a batch: the pool of distinct values seen in
/// this batch, and one pool index per row.
#[derive(Debug, Clone, Default)]
pub struct BatchColumn {
    pub(crate) pool: Vec<String>,
    pub(crate) ids: Vec<u32>,
    /// Batch-local value → pool id memo.
    memo: FxHashMap<String, u32>,
}

impl BatchColumn {
    #[inline]
    fn push(&mut self, value: &str) {
        // Hot path: telemetry streams repeat values in runs, so check the
        // previously appended value before hashing.
        if let Some(&last) = self.ids.last() {
            if self.pool[last as usize] == value {
                self.ids.push(last);
                return;
            }
        }
        let id = match self.memo.get(value) {
            Some(&id) => id,
            None => {
                let id = self.pool.len() as u32;
                self.pool.push(value.to_owned());
                self.memo.insert(value.to_owned(), id);
                id
            }
        };
        self.ids.push(id);
    }
}

/// A columnar batch of rows: per-dimension encoded columns plus the
/// metric values, appended row by row with [`ColumnarBatch::push_row`].
#[derive(Debug, Clone)]
pub struct ColumnarBatch {
    pub(crate) columns: Vec<BatchColumn>,
    pub(crate) metrics: Vec<f64>,
}

impl ColumnarBatch {
    /// An empty batch over `dims` dimensions.
    pub fn new(dims: usize) -> Self {
        ColumnarBatch {
            columns: (0..dims).map(|_| BatchColumn::default()).collect(),
            metrics: Vec::new(),
        }
    }

    /// An empty batch with row capacity reserved up front.
    pub fn with_capacity(dims: usize, rows: usize) -> Self {
        let mut batch = Self::new(dims);
        batch.metrics.reserve(rows);
        for col in &mut batch.columns {
            col.ids.reserve(rows);
        }
        batch
    }

    /// Number of dimensions per row.
    pub fn dim_count(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows appended.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Append one row. Panics if `dim_values` does not match the arity
    /// the batch was created with (a caller bug; the fallible arity check
    /// lives at the cube boundary, [`crate::DataCube::insert_batch`]).
    pub fn push_row(&mut self, dim_values: &[&str], metric: f64) {
        assert_eq!(
            dim_values.len(),
            self.columns.len(),
            "row arity does not match batch arity"
        );
        for (col, value) in self.columns.iter_mut().zip(dim_values) {
            col.push(value);
        }
        self.metrics.push(metric);
    }

    /// Build a batch from parallel column slices (`columns[d][row]`) and
    /// metrics. Returns `None` when the column lengths disagree with the
    /// metric count.
    pub fn from_columns(columns: &[&[&str]], metrics: &[f64]) -> Option<Self> {
        if columns.iter().any(|c| c.len() != metrics.len()) {
            return None;
        }
        let mut batch = Self::with_capacity(columns.len(), metrics.len());
        for (col, dst) in columns.iter().zip(&mut batch.columns) {
            for value in *col {
                dst.push(value);
            }
        }
        batch.metrics.extend_from_slice(metrics);
        Some(batch)
    }

    /// The metric values, in row order.
    pub fn metrics(&self) -> &[f64] {
        &self.metrics
    }

    /// Distinct values interned in dimension `d`'s pool, if present.
    pub fn pool(&self, d: usize) -> Option<&[String]> {
        self.columns.get(d).map(|c| c.pool.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_hold_distinct_values_once() {
        let mut b = ColumnarBatch::new(2);
        for i in 0..100 {
            b.push_row(&[["US", "CA"][i % 2], "v1"], i as f64);
        }
        assert_eq!(b.len(), 100);
        assert_eq!(b.pool(0).unwrap(), &["US".to_string(), "CA".to_string()]);
        assert_eq!(b.pool(1).unwrap(), &["v1".to_string()]);
        assert_eq!(b.columns[0].ids[..4], [0, 1, 0, 1]);
        assert_eq!(b.columns[1].ids.iter().sum::<u32>(), 0);
    }

    #[test]
    fn from_columns_validates_lengths() {
        let ok = ColumnarBatch::from_columns(&[&["a", "b"], &["x", "x"]], &[1.0, 2.0]).unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok.dim_count(), 2);
        assert!(ColumnarBatch::from_columns(&[&["a"]], &[1.0, 2.0]).is_none());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        ColumnarBatch::new(2).push_row(&["only-one"], 1.0);
    }
}
