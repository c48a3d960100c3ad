//! A tiny binary format for tensors and weight maps.
//!
//! Cached teachers and model records (model files, search snapshots) store
//! their weights in this format, always inside a checkpoint envelope, which
//! adds the CRC and the atomic write; it is written and read with the
//! envelope's [`ByteWriter`]/[`ByteReader`], so every decode error is a
//! corruption error. The format is deliberately simple:
//!
//! ```text
//! dict   := magic(u32=0x474D5248 "GMRH") version(u32) count(u32) entry*
//! entry  := name_len(u32) name(utf8) tensor
//! tensor := rank(u32) dims(u64 * rank) data(f32-le * numel)
//! ```

use crate::checkpoint::{corrupt, ByteReader, ByteWriter};
use crate::tensor::Tensor;
use crate::Result;

const MAGIC: u32 = 0x474D_5248;
const VERSION: u32 = 1;

/// Appends a single tensor.
pub(crate) fn write_tensor(w: &mut ByteWriter, t: &Tensor) {
    w.put_u32(t.shape().rank() as u32);
    for &d in t.dims() {
        w.put_u64(d as u64);
    }
    for &v in t.data() {
        w.put_f32(v);
    }
}

/// Reads a single tensor.
pub(crate) fn read_tensor(r: &mut ByteReader) -> Result<Tensor> {
    let rank = r.get_u32()? as usize;
    if rank > 8 {
        return Err(corrupt(format!("implausible tensor rank {rank}")));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        let d = r.get_u64()?;
        dims.push(usize::try_from(d).map_err(|_| corrupt(format!("dim {d} too large")))?);
    }
    // Hostile dims can overflow the product: checked, never wrapped. Zero
    // dims count as one, so they cannot hide an overflow among the others
    // (shape math multiplies those too).
    dims.iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d.max(1)))
        .filter(|&bound| bound <= 1 << 28)
        .ok_or_else(|| corrupt(format!("implausible tensor dims {dims:?}")))?;
    let numel: usize = dims.iter().product();
    // The reader checks that the bytes are there before anything is
    // allocated: a corrupt dim in a short record fails first.
    let data = r
        .get_raw(numel * 4)?
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Tensor::from_vec(&dims, data)
}

/// Appends a named collection of tensors (a "state dict").
pub fn write_state_dict(w: &mut ByteWriter, entries: &[(String, Tensor)]) {
    w.put_u32(MAGIC);
    w.put_u32(VERSION);
    w.put_u32(entries.len() as u32);
    for (name, t) in entries {
        w.put_str(name);
        write_tensor(w, t);
    }
}

/// Reads a named collection of tensors written by [`write_state_dict`].
pub fn read_state_dict(r: &mut ByteReader) -> Result<Vec<(String, Tensor)>> {
    if r.get_u32()? != MAGIC {
        return Err(corrupt("state dict: bad magic"));
    }
    let version = r.get_u32()?;
    if version != VERSION {
        return Err(corrupt(format!(
            "state dict: unsupported version {version}"
        )));
    }
    let count = r.get_u32()? as usize;
    if count > 1 << 20 {
        return Err(corrupt(format!("implausible entry count {count}")));
    }
    let mut out = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let name_len = r.get_u32()? as usize;
        if name_len > 4096 {
            return Err(corrupt(format!("implausible name len {name_len}")));
        }
        let name = std::str::from_utf8(r.get_raw(name_len)?)
            .map_err(|e| corrupt(format!("bad utf8: {e}")))?;
        out.push((name.to_string(), read_tensor(r)?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::is_corruption;
    use crate::rng::Rng;
    use proptest::prelude::*;

    #[test]
    fn tensor_roundtrip() {
        let mut rng = Rng::new(0);
        let t = Tensor::randn(&[2, 3, 4], 1.0, &mut rng);
        let mut w = ByteWriter::new();
        write_tensor(&mut w, &t);
        let back = read_tensor(&mut ByteReader::new(&w.into_bytes())).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn state_dict_roundtrip() {
        let mut rng = Rng::new(1);
        let entries = vec![
            (
                "layer0.weight".to_string(),
                Tensor::randn(&[4, 4], 1.0, &mut rng),
            ),
            (
                "layer0.bias".to_string(),
                Tensor::randn(&[4], 1.0, &mut rng),
            ),
            ("scalar".to_string(), Tensor::full(&[], 7.0)),
        ];
        let mut w = ByteWriter::new();
        write_state_dict(&mut w, &entries);
        let back = read_state_dict(&mut ByteReader::new(&w.into_bytes())).unwrap();
        assert_eq!(entries, back);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_state_dict(&mut ByteReader::new(&[0u8; 16])).unwrap_err();
        assert!(is_corruption(&err), "{err}");
    }

    #[test]
    fn rejects_truncated_input() {
        let mut rng = Rng::new(2);
        let t = Tensor::randn(&[8], 1.0, &mut rng);
        let mut w = ByteWriter::new();
        write_tensor(&mut w, &t);
        let buf = w.into_bytes();
        let err = read_tensor(&mut ByteReader::new(&buf[..buf.len() - 3])).unwrap_err();
        assert!(is_corruption(&err), "{err}");
    }

    #[test]
    fn rejects_dims_whose_product_overflows() {
        // [2^32, 2^32]: the product wraps to 0 in a release build.
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_u64(1 << 32);
        w.put_u64(1 << 32);
        let err = read_tensor(&mut ByteReader::new(&w.into_bytes())).unwrap_err();
        assert!(is_corruption(&err), "{err}");
        // One zero dim does not hide an overflow among the others.
        let mut zero = ByteWriter::new();
        zero.put_u32(3);
        for d in [0, 1 << 32, 1 << 32] {
            zero.put_u64(d);
        }
        let err = read_tensor(&mut ByteReader::new(&zero.into_bytes())).unwrap_err();
        assert!(is_corruption(&err), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn arbitrary_roundtrip(
            dims in proptest::collection::vec(1usize..5, 0..4),
            seed in 0u64..1000,
        ) {
            let mut rng = Rng::new(seed);
            let t = Tensor::randn(&dims, 1.0, &mut rng);
            let mut w = ByteWriter::new();
            write_tensor(&mut w, &t);
            let back = read_tensor(&mut ByteReader::new(&w.into_bytes())).unwrap();
            prop_assert_eq!(t, back);
        }
    }
}
