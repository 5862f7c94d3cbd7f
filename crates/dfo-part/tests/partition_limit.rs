//! Local ids are `u32`s below 2^31: preprocessing refuses a partition that
//! would not fit instead of truncating its ids.

use dfo_part::preprocess::{check_local_ids, MAX_PARTITION_VERTICES};
use dfo_types::{DfoError, VertexRange};

#[test]
fn a_partition_of_2_pow_31_vertices_is_refused_by_name() {
    let fits = VertexRange::new(5, 5 + MAX_PARTITION_VERTICES - 1);
    let past = VertexRange::new(fits.end, fits.end + MAX_PARTITION_VERTICES);
    assert!(check_local_ids(&[VertexRange::new(0, 5), fits]).is_ok());
    match check_local_ids(&[VertexRange::new(0, 5), fits, past]) {
        Err(DfoError::Config(msg)) => assert!(msg.contains("partition 2"), "{msg}"),
        other => panic!("want a Config error naming partition 2, got {other:?}"),
    }
}
