//! The single error type of the `m2xfp` engine API.
//!
//! Every fallible operation across the engine — tensor packing/unpacking,
//! layer construction, layer forwards, model building — reports through
//! [`Error`]. Variants carry the name of the tensor or layer involved so a
//! failure deep inside a model forward still names its site;
//! [`Error::for_tensor`] rewrites that context as an error propagates
//! outward (e.g. a generic shape mismatch becomes "layer 3 qkv_proj").

use std::fmt;

/// Error from the m2xfp engine: quantization layout, layer shapes or model
/// configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A row length is not a multiple of the group size (hardware stream
    /// layouts require aligned rows).
    Misaligned {
        /// Tensor or layer the misaligned rows belong to.
        tensor: String,
        /// Offending row length.
        len: usize,
        /// Required group size.
        group_size: usize,
    },
    /// An operand width does not match the layer/tensor it is applied to.
    WidthMismatch {
        /// Tensor or layer being applied.
        tensor: String,
        /// Width the tensor expects (its reduction dimension).
        expected: usize,
        /// Width the operand actually has.
        got: usize,
    },
    /// A serialized buffer has the wrong length for its declared layout.
    BufferLength {
        /// Tensor being unpacked.
        tensor: String,
        /// Byte length the layout requires.
        expected: usize,
        /// Byte length received.
        got: usize,
    },
    /// A serialized buffer holds the E8M0 NaN code (0xFF) as a group's
    /// scale; no encoder writes it, and no kernel can scale by it.
    NanScale {
        /// Tensor being unpacked.
        tensor: String,
        /// Row-major index of the first group with the NaN scale.
        group: usize,
    },
    /// Invalid configuration (model builder, session setup).
    Config {
        /// Human-readable description naming the offending field.
        msg: String,
    },
}

impl Error {
    /// Invalid-configuration constructor.
    pub fn config(msg: impl Into<String>) -> Self {
        Error::Config { msg: msg.into() }
    }

    /// Rewrites the tensor/layer context of this error — used when a
    /// generic tensor failure propagates out of a named layer, so the
    /// message reports the site the caller knows ("layer 2 mlp_down")
    /// instead of a placeholder.
    #[must_use]
    pub fn for_tensor(mut self, name: impl Into<String>) -> Self {
        match &mut self {
            Error::Misaligned { tensor, .. }
            | Error::WidthMismatch { tensor, .. }
            | Error::BufferLength { tensor, .. }
            | Error::NanScale { tensor, .. } => *tensor = name.into(),
            Error::Config { msg } => *msg = format!("{}: {msg}", name.into()),
        }
        self
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Misaligned {
                tensor,
                len,
                group_size,
            } => write!(
                f,
                "{tensor}: row length {len} is not a multiple of the group size {group_size}"
            ),
            Error::WidthMismatch {
                tensor,
                expected,
                got,
            } => write!(
                f,
                "{tensor}: input width {got} does not match the expected width {expected}"
            ),
            Error::BufferLength {
                tensor,
                expected,
                got,
            } => write!(
                f,
                "{tensor}: buffer is {got} bytes, layout requires {expected}"
            ),
            Error::NanScale { tensor, group } => {
                write!(f, "{tensor}: group {group} has the E8M0 NaN scale")
            }
            Error::Config { msg } => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_tensor() {
        let e = Error::WidthMismatch {
            tensor: "input".into(),
            expected: 64,
            got: 65,
        };
        let msg = e.to_string();
        assert!(msg.contains("input") && msg.contains("64") && msg.contains("65"));
    }

    #[test]
    fn for_tensor_rewrites_context() {
        let e = Error::Misaligned {
            tensor: "tensor".into(),
            len: 40,
            group_size: 32,
        }
        .for_tensor("layer 3 q_proj");
        assert!(e.to_string().starts_with("layer 3 q_proj"));
        let c = Error::config("bad dims").for_tensor("model");
        assert!(c.to_string().contains("model: bad dims"));
    }
}
