//! A tiny binary format for tensors and weight maps.
//!
//! Cached teachers and model records (model files, search snapshots) store
//! their weights in this format, always inside a checkpoint envelope, which
//! adds the CRC and the atomic write. The format is deliberately simple:
//!
//! ```text
//! dict   := magic(u32=0x474D5248 "GMRH") version(u32) count(u32) entry*
//! entry  := name_len(u32) name(utf8) tensor
//! tensor := rank(u32) dims(u64 * rank) data(f32-le * numel)
//! ```

use crate::tensor::Tensor;
use crate::{Result, TensorError};
use std::io::{Read, Write};

const MAGIC: u32 = 0x474D_5248;
const VERSION: u32 = 1;

fn io_err(e: std::io::Error) -> TensorError {
    TensorError::Io(e.to_string())
}

fn write_u32(w: &mut impl Write, v: u32) -> Result<()> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn write_u64(w: &mut impl Write, v: u64) -> Result<()> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn read_u32(r: &mut impl Read) -> Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf).map_err(io_err)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64(r: &mut impl Read) -> Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf).map_err(io_err)?;
    Ok(u64::from_le_bytes(buf))
}

/// Writes a single tensor to a writer.
pub(crate) fn write_tensor(w: &mut impl Write, t: &Tensor) -> Result<()> {
    write_u32(w, t.shape().rank() as u32)?;
    for &d in t.dims() {
        write_u64(w, d as u64)?;
    }
    let mut bytes = Vec::with_capacity(t.numel() * 4);
    for &v in t.data() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    w.write_all(&bytes).map_err(io_err)
}

/// Reads a single tensor from a reader.
pub(crate) fn read_tensor(r: &mut impl Read) -> Result<Tensor> {
    let rank = read_u32(r)? as usize;
    if rank > 8 {
        return Err(TensorError::Io(format!("implausible tensor rank {rank}")));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        let d = read_u64(r)?;
        dims.push(usize::try_from(d).map_err(|_| TensorError::Io(format!("dim {d} too large")))?);
    }
    // Hostile dims can overflow the product: checked, never wrapped. Zero
    // dims count as one, so they cannot hide an overflow among the others
    // (shape math multiplies those too).
    dims.iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d.max(1)))
        .filter(|&bound| bound <= 1 << 28)
        .ok_or_else(|| TensorError::Io(format!("implausible tensor dims {dims:?}")))?;
    let numel: usize = dims.iter().product();
    // Grow the buffer with the bytes that actually arrive: a corrupt dim
    // in a short stream must not allocate up to the bound first.
    let mut bytes = Vec::new();
    r.by_ref().take(numel as u64 * 4).read_to_end(&mut bytes).map_err(io_err)?;
    if bytes.len() != numel * 4 {
        return Err(TensorError::Io(format!(
            "tensor of {numel} elements truncated to {} bytes",
            bytes.len()
        )));
    }
    let data = bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Tensor::from_vec(&dims, data)
}

/// Writes a named collection of tensors (a "state dict").
pub fn write_state_dict(w: &mut impl Write, entries: &[(String, Tensor)]) -> Result<()> {
    write_u32(w, MAGIC)?;
    write_u32(w, VERSION)?;
    write_u32(w, entries.len() as u32)?;
    for (name, t) in entries {
        let bytes = name.as_bytes();
        write_u32(w, bytes.len() as u32)?;
        w.write_all(bytes).map_err(io_err)?;
        write_tensor(w, t)?;
    }
    Ok(())
}

/// Reads a named collection of tensors written by [`write_state_dict`].
pub fn read_state_dict(r: &mut impl Read) -> Result<Vec<(String, Tensor)>> {
    if read_u32(r)? != MAGIC {
        return Err(TensorError::Io("bad magic".to_string()));
    }
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(TensorError::Io(format!("unsupported version {version}")));
    }
    let count = read_u32(r)? as usize;
    if count > 1 << 20 {
        return Err(TensorError::Io(format!("implausible entry count {count}")));
    }
    let mut out = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let name_len = read_u32(r)? as usize;
        if name_len > 4096 {
            return Err(TensorError::Io(format!("implausible name len {name_len}")));
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name).map_err(io_err)?;
        let name =
            String::from_utf8(name).map_err(|e| TensorError::Io(format!("bad utf8: {e}")))?;
        out.push((name, read_tensor(r)?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use proptest::prelude::*;

    #[test]
    fn tensor_roundtrip() {
        let mut rng = Rng::new(0);
        let t = Tensor::randn(&[2, 3, 4], 1.0, &mut rng);
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t).unwrap();
        let back = read_tensor(&mut buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn state_dict_roundtrip() {
        let mut rng = Rng::new(1);
        let entries = vec![
            ("layer0.weight".to_string(), Tensor::randn(&[4, 4], 1.0, &mut rng)),
            ("layer0.bias".to_string(), Tensor::randn(&[4], 1.0, &mut rng)),
            ("scalar".to_string(), Tensor::full(&[], 7.0)),
        ];
        let mut buf = Vec::new();
        write_state_dict(&mut buf, &entries).unwrap();
        let back = read_state_dict(&mut buf.as_slice()).unwrap();
        assert_eq!(entries, back);
    }

    #[test]
    fn rejects_bad_magic() {
        let buf = vec![0u8; 16];
        assert!(read_state_dict(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_truncated_input() {
        let mut rng = Rng::new(2);
        let t = Tensor::randn(&[8], 1.0, &mut rng);
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_tensor(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_dims_whose_product_overflows() {
        // [2^32, 2^32]: the product wraps to 0 in a release build.
        let mut buf = Vec::new();
        write_u32(&mut buf, 2).unwrap();
        write_u64(&mut buf, 1 << 32).unwrap();
        write_u64(&mut buf, 1 << 32).unwrap();
        let err = read_tensor(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, TensorError::Io(_)), "{err}");
        // One zero dim does not hide an overflow among the others.
        let mut zero = Vec::new();
        write_u32(&mut zero, 3).unwrap();
        for d in [0, 1 << 32, 1 << 32] {
            write_u64(&mut zero, d).unwrap();
        }
        assert!(matches!(
            read_tensor(&mut zero.as_slice()),
            Err(TensorError::Io(_))
        ));
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
            let mut buf = Vec::new();
            write_tensor(&mut buf, &t).unwrap();
            let back = read_tensor(&mut buf.as_slice()).unwrap();
            prop_assert_eq!(t, back);
        }
    }
}
