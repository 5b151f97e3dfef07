//! Offline stand-in for the `serde` crate.
//!
//! The build environment for this workspace has no access to a crates.io
//! registry, so the handful of external dependencies are vendored as small
//! in-tree shims under `shims/`. This crate reproduces exactly the slice of
//! serde's API that the workspace uses: the `Serialize` / `Deserialize`
//! traits (driven by the companion `serde_derive` proc-macro), a
//! self-describing [`Value`] tree that serializers and deserializers
//! exchange, and the `Serializer` / `Deserializer` traits in the shape the
//! hand-written `#[serde(with = "...")]` modules expect.
//!
//! The data model intentionally differs from real serde: instead of the
//! visitor architecture, a `Serializer` is anything that can accept a
//! finished [`Value`], and a `Deserializer` is anything that can produce
//! one. Derived impls lower structs and enums to the same externally-tagged
//! JSON-style shapes real serde uses, so `serde_json` output remains
//! conventional.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Error type shared by the in-tree serializers and deserializers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error carrying a custom message.
    pub fn custom<T: fmt::Display>(msg: T) -> Error {
        Error {
            msg: msg.to_string(),
        }
    }

    /// Error for an enum payload naming no known variant.
    pub fn unknown_variant(variant: &str, ty: &str) -> Error {
        Error::custom(format!("unknown variant `{variant}` for {ty}"))
    }

    /// Error for a [`Value`] whose shape does not match the target type.
    pub fn invalid_type(expected: &str) -> Error {
        Error::custom(format!("invalid type: expected {expected}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// A JSON-like number. Integers keep their signedness so round-trips are
/// lossless for the full `i64` / `u64` ranges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A signed integer.
    I64(i64),
    /// An unsigned integer outside (or simply stored as) `u64`.
    U64(u64),
    /// A floating-point number.
    F64(f64),
}

impl Number {
    /// Returns the number as `i64` if it fits.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::I64(v) => Some(v),
            Number::U64(v) => i64::try_from(v).ok(),
            Number::F64(v) if v.fract() == 0.0 && v >= i64::MIN as f64 && v <= i64::MAX as f64 => {
                Some(v as i64)
            }
            Number::F64(_) => None,
        }
    }

    /// Returns the number as `u64` if it fits.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::I64(v) => u64::try_from(v).ok(),
            Number::U64(v) => Some(v),
            Number::F64(v) if v.fract() == 0.0 && v >= 0.0 && v <= u64::MAX as f64 => {
                Some(v as u64)
            }
            Number::F64(_) => None,
        }
    }

    /// Returns the number as `f64` (always possible, possibly lossy).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::I64(v) => v as f64,
            Number::U64(v) => v as f64,
            Number::F64(v) => v,
        }
    }
}

/// The self-describing tree exchanged between serializers and
/// deserializers. Objects preserve insertion order so derived structs
/// round-trip field order deterministically.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Value {
    /// JSON `null`.
    #[default]
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number.
    Number(Number),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object as an order-preserving pair list.
    Object(Vec<(String, Value)>),
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        const NULL: Value = Value::Null;
        match self {
            Value::Object(pairs) => pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl std::ops::IndexMut<&str> for Value {
    /// Inserts `Null` under `key` if absent (serde_json's `json[key] = v`
    /// semantics). Panics if `self` is not an object.
    fn index_mut(&mut self, key: &str) -> &mut Value {
        match self {
            Value::Object(pairs) => {
                if let Some(i) = pairs.iter().position(|(k, _)| k == key) {
                    &mut pairs[i].1
                } else {
                    pairs.push((key.to_string(), Value::Null));
                    &mut pairs.last_mut().unwrap().1
                }
            }
            other => panic!("cannot index non-object value {other:?} by string key"),
        }
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        const NULL: Value = Value::Null;
        match self {
            Value::Array(items) => items.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl std::ops::IndexMut<usize> for Value {
    fn index_mut(&mut self, idx: usize) -> &mut Value {
        match self {
            Value::Array(items) => &mut items[idx],
            other => panic!("cannot index non-array value {other:?} by position"),
        }
    }
}

/// A sink that accepts one finished [`Value`].
///
/// `type Error: From<Error>` lets derived code use `?` on the in-tree
/// conversion helpers regardless of the concrete serializer.
pub trait Serializer: Sized {
    /// Result of a successful serialization.
    type Ok;
    /// Error produced by this serializer.
    type Error: From<Error>;

    /// Consumes the serializer with the final value.
    fn serialize_value(self, value: Value) -> Result<Self::Ok, Self::Error>;
}

/// A source that yields one [`Value`].
pub trait Deserializer<'de>: Sized {
    /// Error produced by this deserializer.
    type Error: From<Error> + fmt::Debug + fmt::Display;

    /// Consumes the deserializer, producing its value tree.
    fn take_value(self) -> Result<Value, Self::Error>;
}

/// A type that can lower itself to a [`Value`] through any [`Serializer`].
pub trait Serialize {
    /// Serializes `self` into `serializer`.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A type that can rebuild itself from a [`Value`] pulled out of any
/// [`Deserializer`].
pub trait Deserialize<'de>: Sized {
    /// Deserializes `Self` out of `deserializer`.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// Owned deserialization (no borrows from the input), as in real serde.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

/// The canonical serializer: returns the [`Value`] itself.
pub struct ValueSerializer;

impl Serializer for ValueSerializer {
    type Ok = Value;
    type Error = Error;

    fn serialize_value(self, value: Value) -> Result<Value, Error> {
        Ok(value)
    }
}

/// The canonical deserializer: wraps an already-built [`Value`].
pub struct ValueDeserializer {
    value: Value,
}

impl ValueDeserializer {
    /// Wraps `value` for deserialization.
    pub fn new(value: Value) -> ValueDeserializer {
        ValueDeserializer { value }
    }
}

impl<'de> Deserializer<'de> for ValueDeserializer {
    type Error = Error;

    fn take_value(self) -> Result<Value, Error> {
        Ok(self.value)
    }
}

/// Serializes any `Serialize` type to a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    value.serialize(ValueSerializer)
}

/// Rebuilds a `Deserialize` type from a [`Value`] tree.
pub fn from_value<T: DeserializeOwned>(value: Value) -> Result<T, Error> {
    T::deserialize(ValueDeserializer::new(value))
}

// ---------------------------------------------------------------------------
// Helpers used by derive-generated code (stable names, but not a public API
// in any meaningful sense).
// ---------------------------------------------------------------------------

/// Unwraps `value` as an object, or reports `ty` in the error.
pub fn expect_object(value: Value, ty: &str) -> Result<Vec<(String, Value)>, Error> {
    match value {
        Value::Object(pairs) => Ok(pairs),
        other => Err(Error::custom(format!(
            "invalid type for {ty}: expected object, got {other:?}"
        ))),
    }
}

/// Unwraps `value` as an array, or reports `ty` in the error.
pub fn expect_array(value: Value, ty: &str) -> Result<Vec<Value>, Error> {
    match value {
        Value::Array(items) => Ok(items),
        other => Err(Error::custom(format!(
            "invalid type for {ty}: expected array, got {other:?}"
        ))),
    }
}

/// Removes the field `name` from a decoded object, or errors citing `ty`.
pub fn take_field(obj: &mut Vec<(String, Value)>, name: &str, ty: &str) -> Result<Value, Error> {
    match obj.iter().position(|(k, _)| k == name) {
        Some(i) => Ok(obj.remove(i).1),
        None => Err(Error::custom(format!("missing field `{name}` in {ty}"))),
    }
}

/// Removes the field `name` from a decoded object if present — the
/// `#[serde(default)]` path, where absence is not an error.
pub fn take_field_opt(obj: &mut Vec<(String, Value)>, name: &str) -> Option<Value> {
    obj.iter()
        .position(|(k, _)| k == name)
        .map(|i| obj.remove(i).1)
}

/// Parses a map key that was rendered as an object-key string back into its
/// typed form: tries the string itself first, then numeric readings. Mirrors
/// serde_json's integer-keyed-map convention.
pub fn from_key_str<T: DeserializeOwned>(key: &str) -> Result<T, Error> {
    if let Ok(v) = from_value(Value::String(key.to_string())) {
        return Ok(v);
    }
    if let Ok(n) = key.parse::<i64>() {
        if let Ok(v) = from_value(Value::Number(Number::I64(n))) {
            return Ok(v);
        }
    }
    if let Ok(n) = key.parse::<u64>() {
        if let Ok(v) = from_value(Value::Number(Number::U64(n))) {
            return Ok(v);
        }
    }
    if let Ok(n) = key.parse::<f64>() {
        if let Ok(v) = from_value(Value::Number(Number::F64(n))) {
            return Ok(v);
        }
    }
    Err(Error::custom(format!("cannot decode map key `{key}`")))
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! int_impls {
    ($($ty:ty => $variant:ident as $wide:ty),* $(,)?) => {$(
        impl Serialize for $ty {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_value(Value::Number(Number::$variant(*self as $wide)))
            }
        }

        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                match deserializer.take_value()? {
                    Value::Number(n) => {
                        let wide = match stringify!($variant) {
                            "I64" => n.as_i64().map(|v| v as i128),
                            _ => n.as_u64().map(|v| v as i128),
                        };
                        wide.and_then(|v| <$ty>::try_from(v).ok()).ok_or_else(|| {
                            D::Error::from(Error::custom(concat!(
                                "number out of range for ",
                                stringify!($ty)
                            )))
                        })
                    }
                    _ => Err(D::Error::from(Error::invalid_type(stringify!($ty)))),
                }
            }
        }
    )*};
}

int_impls! {
    i8 => I64 as i64,
    i16 => I64 as i64,
    i32 => I64 as i64,
    i64 => I64 as i64,
    isize => I64 as i64,
    u8 => U64 as u64,
    u16 => U64 as u64,
    u32 => U64 as u64,
    u64 => U64 as u64,
    usize => U64 as u64,
}

impl Serialize for i128 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        if let Ok(v) = i64::try_from(*self) {
            serializer.serialize_value(Value::Number(Number::I64(v)))
        } else if let Ok(v) = u64::try_from(*self) {
            serializer.serialize_value(Value::Number(Number::U64(v)))
        } else {
            // Out-of-range i128 values fall back to a tagged string so
            // round-trips stay lossless.
            serializer.serialize_value(Value::String(format!("#i128:{self}")))
        }
    }
}

impl<'de> Deserialize<'de> for i128 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_value()? {
            Value::Number(n) => {
                if let Some(v) = n.as_i64() {
                    Ok(v as i128)
                } else if let Some(v) = n.as_u64() {
                    Ok(v as i128)
                } else {
                    Err(D::Error::from(Error::invalid_type("i128")))
                }
            }
            Value::String(s) => s
                .strip_prefix("#i128:")
                .and_then(|rest| rest.parse::<i128>().ok())
                .ok_or_else(|| D::Error::from(Error::invalid_type("i128"))),
            _ => Err(D::Error::from(Error::invalid_type("i128"))),
        }
    }
}

macro_rules! float_impls {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_value(Value::Number(Number::F64(*self as f64)))
            }
        }

        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                match deserializer.take_value()? {
                    Value::Number(n) => Ok(n.as_f64() as $ty),
                    _ => Err(D::Error::from(Error::invalid_type(stringify!($ty)))),
                }
            }
        }
    )*};
}

float_impls!(f32, f64);

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Bool(*self))
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_value()? {
            Value::Bool(b) => Ok(b),
            _ => Err(D::Error::from(Error::invalid_type("bool"))),
        }
    }
}

impl Serialize for char {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::String(self.to_string()))
    }
}

impl<'de> Deserialize<'de> for char {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_value()? {
            Value::String(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            _ => Err(D::Error::from(Error::invalid_type("char"))),
        }
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::String(self.clone()))
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::String(self.to_string()))
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_value()? {
            Value::String(s) => Ok(s),
            _ => Err(D::Error::from(Error::invalid_type("string"))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            None => serializer.serialize_value(Value::Null),
            Some(v) => serializer.serialize_value(to_value(v)?),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_value()? {
            Value::Null => Ok(None),
            other => {
                let inner =
                    T::deserialize(ValueDeserializer::new(other)).map_err(D::Error::from)?;
                Ok(Some(inner))
            }
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        T::deserialize(deserializer).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for std::sync::Arc<str> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        String::deserialize(deserializer).map(std::sync::Arc::from)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut items = Vec::with_capacity(self.len());
        for item in self {
            items.push(to_value(item)?);
        }
        serializer.serialize_value(Value::Array(items))
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let items = expect_array(deserializer.take_value()?, "Vec").map_err(D::Error::from)?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            out.push(T::deserialize(ValueDeserializer::new(item)).map_err(D::Error::from)?);
        }
        Ok(out)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let items: Vec<T> = Vec::deserialize(deserializer)?;
        items
            .try_into()
            .map_err(|_| D::Error::from(Error::invalid_type("fixed-size array")))
    }
}

macro_rules! tuple_impls {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_value(Value::Array(vec![$(to_value(&self.$idx)?),+]))
            }
        }

        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                let mut items = expect_array(deserializer.take_value()?, "tuple")
                    .map_err(D::Error::from)?
                    .into_iter();
                Ok(($(
                    $name::deserialize(ValueDeserializer::new(items.next().ok_or_else(
                        || D::Error::from(Error::invalid_type("tuple element"))
                    )?)).map_err(D::Error::from)?,
                )+))
            }
        }
    )*};
}

tuple_impls! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, Z: 3)
}

/// Serializes a map: string-renderable keys become an object (matching
/// serde_json's convention, including integer keys), anything else becomes
/// an array of `[key, value]` pairs.
///
/// Public so map-like containers outside this crate (e.g. the persistent
/// `im` shim) can serialize with exactly the same shape as `BTreeMap`.
pub fn serialize_map_entries<'a, K, V, S, I>(entries: I, serializer: S) -> Result<S::Ok, S::Error>
where
    K: Serialize + 'a,
    V: Serialize + 'a,
    S: Serializer,
    I: Iterator<Item = (&'a K, &'a V)> + Clone,
{
    let mut object = Vec::new();
    let mut stringly = true;
    for (k, _) in entries.clone() {
        match to_value(k)? {
            Value::String(s) => object.push(s),
            Value::Number(n) => object.push(render_number(n)),
            _ => {
                stringly = false;
                break;
            }
        }
    }
    if stringly {
        let pairs = object
            .into_iter()
            .zip(entries)
            .map(|(key, (_, v))| Ok((key, to_value(v)?)))
            .collect::<Result<Vec<_>, Error>>()?;
        serializer.serialize_value(Value::Object(pairs))
    } else {
        let pairs = entries
            .map(|(k, v)| Ok(Value::Array(vec![to_value(k)?, to_value(v)?])))
            .collect::<Result<Vec<_>, Error>>()?;
        serializer.serialize_value(Value::Array(pairs))
    }
}

fn render_number(n: Number) -> String {
    match n {
        Number::I64(v) => v.to_string(),
        Number::U64(v) => v.to_string(),
        Number::F64(v) => format!("{v}"),
    }
}

/// Inverse of [`serialize_map_entries`]: accepts both the object and the
/// `[key, value]`-pair-array encodings. Public for the same reason.
pub fn deserialize_map_entries<K, V, E>(value: Value) -> Result<Vec<(K, V)>, E>
where
    K: DeserializeOwned,
    V: DeserializeOwned,
    E: From<Error>,
{
    match value {
        Value::Object(pairs) => pairs
            .into_iter()
            .map(|(k, v)| Ok((from_key_str(&k)?, from_value(v)?)))
            .collect::<Result<Vec<_>, Error>>()
            .map_err(E::from),
        Value::Array(items) => items
            .into_iter()
            .map(|item| {
                let mut pair = expect_array(item, "map entry")?.into_iter();
                let k = pair
                    .next()
                    .ok_or_else(|| Error::invalid_type("map entry key"))?;
                let v = pair
                    .next()
                    .ok_or_else(|| Error::invalid_type("map entry value"))?;
                Ok((from_value(k)?, from_value(v)?))
            })
            .collect::<Result<Vec<_>, Error>>()
            .map_err(E::from),
        _ => Err(E::from(Error::invalid_type("map"))),
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serialize_map_entries(self.iter(), serializer)
    }
}

impl<'de, K, V> Deserialize<'de> for BTreeMap<K, V>
where
    K: DeserializeOwned + Ord,
    V: DeserializeOwned,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let pairs: Vec<(K, V)> = deserialize_map_entries(deserializer.take_value()?)?;
        Ok(pairs.into_iter().collect())
    }
}

impl<K: Serialize + std::hash::Hash + Eq, V: Serialize> Serialize for HashMap<K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serialize_map_entries(self.iter(), serializer)
    }
}

impl<'de, K, V> Deserialize<'de> for HashMap<K, V>
where
    K: DeserializeOwned + std::hash::Hash + Eq,
    V: DeserializeOwned,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let pairs: Vec<(K, V)> = deserialize_map_entries(deserializer.take_value()?)?;
        Ok(pairs.into_iter().collect())
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut items = Vec::with_capacity(self.len());
        for item in self {
            items.push(to_value(item)?);
        }
        serializer.serialize_value(Value::Array(items))
    }
}

impl<'de, T: DeserializeOwned + Ord> Deserialize<'de> for BTreeSet<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let items = expect_array(deserializer.take_value()?, "BTreeSet").map_err(D::Error::from)?;
        items
            .into_iter()
            .map(|item| from_value(item))
            .collect::<Result<BTreeSet<T>, Error>>()
            .map_err(D::Error::from)
    }
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(self.clone())
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.take_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        let v = to_value(&42u64).unwrap();
        assert_eq!(v, Value::Number(Number::U64(42)));
        let back: u64 = from_value(v).unwrap();
        assert_eq!(back, 42);
    }

    #[test]
    fn nested_collections_round_trip() {
        let mut map = BTreeMap::new();
        map.insert(3u32, vec!["a".to_string(), "b".to_string()]);
        let v = to_value(&map).unwrap();
        // Integer map keys become object-key strings, as in serde_json.
        assert!(matches!(&v, Value::Object(pairs) if pairs[0].0 == "3"));
        let back: BTreeMap<u32, Vec<String>> = from_value(v).unwrap();
        assert_eq!(back, map);
    }

    #[test]
    fn option_uses_null() {
        assert_eq!(to_value(&Option::<u8>::None).unwrap(), Value::Null);
        let back: Option<u8> = from_value(Value::Null).unwrap();
        assert_eq!(back, None);
    }

    #[test]
    fn out_of_range_rejected() {
        let err = from_value::<u8>(Value::Number(Number::I64(300)));
        assert!(err.is_err());
    }
}
