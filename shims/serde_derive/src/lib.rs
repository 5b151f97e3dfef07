//! Offline stand-in for `serde_derive`.
//!
//! Generates `Serialize` / `Deserialize` impls targeting the in-tree serde
//! shim's `Value`-based data model. The input is parsed directly from the
//! `proc_macro` token stream (no `syn`/`quote`, which are unavailable in
//! this offline build). The supported input grammar is the slice this
//! workspace uses: plain structs (named, tuple, unit), externally-tagged
//! enums with unit / tuple / struct variants, simple generic parameter
//! lists, and the `#[serde(with = "module")]`, `#[serde(default)]` (bare
//! flag — a missing field deserializes to `Default`), and `#[serde(skip)]`
//! field attributes on named struct fields.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Serialize,
    Deserialize,
}

fn expand(input: TokenStream, mode: Mode) -> TokenStream {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let code = match parse_input(&tokens) {
        Ok(item) => match mode {
            Mode::Serialize => gen_serialize(&item),
            Mode::Deserialize => gen_deserialize(&item),
        },
        Err(msg) => format!("compile_error!({msg:?});"),
    };
    code.parse().unwrap_or_else(|e| {
        format!("compile_error!(\"serde_derive shim produced unparsable code: {e:?}\");")
            .parse()
            .unwrap()
    })
}

// ---------------------------------------------------------------------------
// Parsed shape
// ---------------------------------------------------------------------------

struct Item {
    name: String,
    /// Parameter declarations as written (`K: Ord`), one per parameter.
    params: Vec<Param>,
    body: Body,
}

struct Param {
    decl: String,
    name: String,
    is_type: bool,
}

enum Body {
    Struct(Fields),
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Fields {
    Unit,
    Named(Vec<Field>),
    Tuple(Vec<Field>),
}

struct Field {
    /// `None` for tuple fields.
    name: Option<String>,
    /// Module path from `#[serde(with = "...")]`, if present.
    with: Option<String>,
    /// `#[serde(default)]`: a missing field deserializes to `Default`.
    default: bool,
    /// `#[serde(skip)]`: never serialized; deserializes to `Default`.
    skip: bool,
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    tokens: &'a [TokenTree],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<&'a TokenTree> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<&'a TokenTree> {
        let t = self.tokens.get(self.pos);
        self.pos += 1;
        t
    }

    fn eat_punct(&mut self, ch: char) -> bool {
        if let Some(TokenTree::Punct(p)) = self.peek() {
            if p.as_char() == ch {
                self.pos += 1;
                return true;
            }
        }
        false
    }
}

fn is_ident(t: &TokenTree, s: &str) -> bool {
    matches!(t, TokenTree::Ident(i) if i.to_string() == s)
}

/// Skips one attribute (`#[...]`) if present; returns its bracket group.
fn eat_attr<'a>(c: &mut Cursor<'a>) -> Option<&'a TokenTree> {
    if let Some(TokenTree::Punct(p)) = c.peek() {
        if p.as_char() == '#' {
            c.pos += 1;
            return c.next();
        }
    }
    None
}

/// Skips `pub` / `pub(...)` if present.
fn eat_vis(c: &mut Cursor<'_>) {
    if let Some(t) = c.peek() {
        if is_ident(t, "pub") {
            c.pos += 1;
            if let Some(TokenTree::Group(g)) = c.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    c.pos += 1;
                }
            }
        }
    }
}

/// Extracts the `with = "..."` path from a `#[serde(...)]` attribute group,
/// if this is one.
fn with_from_attr(attr: &TokenTree) -> Option<String> {
    let TokenTree::Group(g) = attr else {
        return None;
    };
    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
    if inner.is_empty() || !is_ident(&inner[0], "serde") {
        return None;
    }
    let TokenTree::Group(args) = inner.get(1)? else {
        return None;
    };
    let args: Vec<TokenTree> = args.stream().into_iter().collect();
    let mut i = 0;
    while i < args.len() {
        if is_ident(&args[i], "with") {
            if let (Some(TokenTree::Punct(eq)), Some(TokenTree::Literal(lit))) =
                (args.get(i + 1), args.get(i + 2))
            {
                if eq.as_char() == '=' {
                    let s = lit.to_string();
                    return Some(s.trim_matches('"').to_string());
                }
            }
        }
        i += 1;
    }
    None
}

/// True when a `#[serde(...)]` attribute group carries the bare flag
/// `flag` (e.g. `default` or `skip`) at any comma position.
fn flag_in_attr(attr: &TokenTree, flag: &str) -> bool {
    let TokenTree::Group(g) = attr else {
        return false;
    };
    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
    if inner.is_empty() || !is_ident(&inner[0], "serde") {
        return false;
    }
    let Some(TokenTree::Group(args)) = inner.get(1) else {
        return false;
    };
    let args: Vec<TokenTree> = args.stream().into_iter().collect();
    let mut i = 0;
    while i < args.len() {
        if is_ident(&args[i], flag) {
            // A bare flag is followed by `,` or the end — `default = "f"`
            // (function paths) is not supported and must not match.
            match args.get(i + 1) {
                None => return true,
                Some(TokenTree::Punct(p)) if p.as_char() == ',' => return true,
                _ => {}
            }
        }
        i += 1;
    }
    false
}

fn render(tokens: &[TokenTree]) -> String {
    tokens.iter().cloned().collect::<TokenStream>().to_string()
}

fn parse_input(tokens: &[TokenTree]) -> Result<Item, String> {
    let mut c = Cursor { tokens, pos: 0 };
    // Skip outer attributes and visibility.
    loop {
        if eat_attr(&mut c).is_some() {
            continue;
        }
        match c.peek() {
            Some(t) if is_ident(t, "pub") => eat_vis(&mut c),
            _ => break,
        }
    }
    let kind = match c.next() {
        Some(t) if is_ident(t, "struct") => "struct",
        Some(t) if is_ident(t, "enum") => "enum",
        other => return Err(format!("expected struct or enum, found {other:?}")),
    };
    let name = match c.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    let params = if c.eat_punct('<') {
        parse_generics(&mut c)?
    } else {
        Vec::new()
    };
    if let Some(t) = c.peek() {
        if is_ident(t, "where") {
            return Err("serde_derive shim: `where` clauses are not supported".to_string());
        }
    }
    let body = if kind == "struct" {
        Body::Struct(parse_struct_body(&mut c)?)
    } else {
        match c.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                Body::Enum(parse_variants(&inner)?)
            }
            other => return Err(format!("expected enum body, found {other:?}")),
        }
    };
    Ok(Item { name, params, body })
}

/// Parses a generic parameter list, cursor positioned just past `<`.
fn parse_generics(c: &mut Cursor<'_>) -> Result<Vec<Param>, String> {
    let mut depth = 1usize;
    let mut current: Vec<TokenTree> = Vec::new();
    let mut raw_params: Vec<Vec<TokenTree>> = Vec::new();
    loop {
        let t = c
            .next()
            .ok_or_else(|| "unterminated generic parameter list".to_string())?;
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                depth += 1;
                current.push(t.clone());
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                depth -= 1;
                if depth == 0 {
                    if !current.is_empty() {
                        raw_params.push(std::mem::take(&mut current));
                    }
                    break;
                }
                current.push(t.clone());
            }
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 1 => {
                if !current.is_empty() {
                    raw_params.push(std::mem::take(&mut current));
                }
            }
            _ => current.push(t.clone()),
        }
    }
    let mut params = Vec::new();
    for raw in raw_params {
        let decl = render(&raw);
        let (name, is_type) = match &raw[0] {
            TokenTree::Punct(p) if p.as_char() == '\'' => match raw.get(1) {
                Some(TokenTree::Ident(i)) => (format!("'{i}"), false),
                _ => return Err("malformed lifetime parameter".to_string()),
            },
            TokenTree::Ident(i) if i.to_string() == "const" => match raw.get(1) {
                Some(TokenTree::Ident(n)) => (n.to_string(), false),
                _ => return Err("malformed const parameter".to_string()),
            },
            TokenTree::Ident(i) => (i.to_string(), true),
            other => return Err(format!("unsupported generic parameter {other:?}")),
        };
        params.push(Param {
            decl,
            name,
            is_type,
        });
    }
    Ok(params)
}

fn parse_struct_body(c: &mut Cursor<'_>) -> Result<Fields, String> {
    match c.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            Ok(Fields::Named(parse_named_fields(&inner)?))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            Ok(Fields::Tuple(parse_tuple_fields(&inner)?))
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => Ok(Fields::Unit),
        other => Err(format!("expected struct body, found {other:?}")),
    }
}

fn parse_named_fields(tokens: &[TokenTree]) -> Result<Vec<Field>, String> {
    let mut c = Cursor { tokens, pos: 0 };
    let mut fields = Vec::new();
    while c.peek().is_some() {
        let mut with = None;
        let mut default = false;
        let mut skip = false;
        while let Some(attr) = eat_attr(&mut c) {
            if let Some(w) = with_from_attr(attr) {
                with = Some(w);
            }
            default |= flag_in_attr(attr, "default");
            skip |= flag_in_attr(attr, "skip");
        }
        eat_vis(&mut c);
        let name = match c.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => return Err(format!("expected field name, found {other:?}")),
        };
        if !c.eat_punct(':') {
            return Err(format!("expected `:` after field `{name}`"));
        }
        skip_type(&mut c);
        fields.push(Field {
            name: Some(name),
            with,
            default,
            skip,
        });
    }
    Ok(fields)
}

fn parse_tuple_fields(tokens: &[TokenTree]) -> Result<Vec<Field>, String> {
    let mut c = Cursor { tokens, pos: 0 };
    let mut fields = Vec::new();
    while c.peek().is_some() {
        let mut with = None;
        while let Some(attr) = eat_attr(&mut c) {
            if let Some(w) = with_from_attr(attr) {
                with = Some(w);
            }
        }
        eat_vis(&mut c);
        skip_type(&mut c);
        fields.push(Field {
            name: None,
            with,
            default: false,
            skip: false,
        });
    }
    Ok(fields)
}

/// Consumes a type, stopping after the angle-depth-0 `,` that terminates it
/// (or at end of stream).
fn skip_type(c: &mut Cursor<'_>) {
    let mut depth = 0usize;
    while let Some(t) = c.peek() {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth = depth.saturating_sub(1),
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                c.pos += 1;
                return;
            }
            _ => {}
        }
        c.pos += 1;
    }
}

fn parse_variants(tokens: &[TokenTree]) -> Result<Vec<Variant>, String> {
    let mut c = Cursor { tokens, pos: 0 };
    let mut variants = Vec::new();
    while c.peek().is_some() {
        while eat_attr(&mut c).is_some() {}
        let name = match c.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => return Err(format!("expected variant name, found {other:?}")),
        };
        let fields = match c.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                c.pos += 1;
                Fields::Named(parse_named_fields(&inner)?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                c.pos += 1;
                Fields::Tuple(parse_tuple_fields(&inner)?)
            }
            _ => Fields::Unit,
        };
        // Discriminants (`= expr`) are not used with serde in this workspace.
        if c.eat_punct('=') {
            return Err("serde_derive shim: explicit discriminants unsupported".to_string());
        }
        c.eat_punct(',');
        variants.push(Variant { name, fields });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn impl_generics(item: &Item, mode: Mode) -> (String, String) {
    let bound = match mode {
        Mode::Serialize => "::serde::Serialize",
        Mode::Deserialize => "::serde::DeserializeOwned",
    };
    let mut decls: Vec<String> = Vec::new();
    if mode == Mode::Deserialize {
        decls.push("'de".to_string());
    }
    let mut names: Vec<String> = Vec::new();
    for p in &item.params {
        if p.is_type {
            if p.decl.contains(':') {
                decls.push(format!("{} + {bound}", p.decl));
            } else {
                decls.push(format!("{}: {bound}", p.decl));
            }
        } else {
            decls.push(p.decl.clone());
        }
        names.push(p.name.clone());
    }
    let impl_g = if decls.is_empty() {
        String::new()
    } else {
        format!("<{}>", decls.join(", "))
    };
    let ty_g = if names.is_empty() {
        String::new()
    } else {
        format!("<{}>", names.join(", "))
    };
    (impl_g, ty_g)
}

fn gen_serialize(item: &Item) -> String {
    let (impl_g, ty_g) = impl_generics(item, Mode::Serialize);
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(fields) => {
            let expr = ser_fields_expr(name, fields, "self.");
            format!("serializer.serialize_value({expr})")
        }
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                arms.push_str(&ser_variant_arm(name, v));
            }
            format!("let __value = match self {{ {arms} }};\nserializer.serialize_value(__value)")
        }
    };
    format!(
        "#[automatically_derived]\n\
         #[allow(unused_mut, unused_variables, clippy::all)]\n\
         impl{impl_g} ::serde::Serialize for {name}{ty_g} {{\n\
             fn serialize<__S: ::serde::Serializer>(&self, serializer: __S)\n\
                 -> ::core::result::Result<__S::Ok, __S::Error> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}

/// Expression producing the `Value` for a set of struct fields accessed via
/// `prefix` (`self.` for structs, empty for bound variant bindings).
fn ser_fields_expr(ty: &str, fields: &Fields, prefix: &str) -> String {
    match fields {
        Fields::Unit => "::serde::Value::Null".to_string(),
        Fields::Named(fs) => {
            let mut pairs = Vec::new();
            for f in fs {
                if f.skip {
                    continue;
                }
                let fname = f.name.as_deref().unwrap();
                let access = format!("&{prefix}{fname}");
                let value = match &f.with {
                    Some(path) => {
                        format!("{path}::serialize({access}, ::serde::ValueSerializer)?")
                    }
                    None => format!("::serde::to_value({access})?"),
                };
                pairs.push(format!("(::std::string::String::from({fname:?}), {value})"));
            }
            format!("::serde::Value::Object(::std::vec![{}])", pairs.join(", "))
        }
        Fields::Tuple(fs) if fs.len() == 1 => {
            let _ = ty;
            format!("::serde::to_value(&{prefix}0)?")
        }
        Fields::Tuple(fs) => {
            let items: Vec<String> = (0..fs.len())
                .map(|i| format!("::serde::to_value(&{prefix}{i})?"))
                .collect();
            format!("::serde::Value::Array(::std::vec![{}])", items.join(", "))
        }
    }
}

fn ser_variant_arm(name: &str, v: &Variant) -> String {
    let vname = &v.name;
    match &v.fields {
        Fields::Unit => format!(
            "{name}::{vname} => ::serde::Value::String(::std::string::String::from({vname:?})),\n"
        ),
        Fields::Tuple(fs) => {
            let binds: Vec<String> = (0..fs.len()).map(|i| format!("__f{i}")).collect();
            let payload = if fs.len() == 1 {
                "::serde::to_value(__f0)?".to_string()
            } else {
                let items: Vec<String> = binds
                    .iter()
                    .map(|b| format!("::serde::to_value({b})?"))
                    .collect();
                format!("::serde::Value::Array(::std::vec![{}])", items.join(", "))
            };
            format!(
                "{name}::{vname}({}) => ::serde::Value::Object(::std::vec![\
                     (::std::string::String::from({vname:?}), {payload})]),\n",
                binds.join(", ")
            )
        }
        Fields::Named(fs) => {
            let binds: Vec<String> = fs.iter().map(|f| f.name.clone().unwrap()).collect();
            let pairs: Vec<String> = binds
                .iter()
                .map(|b| format!("(::std::string::String::from({b:?}), ::serde::to_value({b})?)"))
                .collect();
            format!(
                "{name}::{vname} {{ {} }} => ::serde::Value::Object(::std::vec![\
                     (::std::string::String::from({vname:?}), \
                      ::serde::Value::Object(::std::vec![{}]))]),\n",
                binds.join(", "),
                pairs.join(", ")
            )
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    let (impl_g, ty_g) = impl_generics(item, Mode::Deserialize);
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(fields) => de_struct_body(name, fields),
        Body::Enum(variants) => de_enum_body(name, variants),
    };
    format!(
        "#[automatically_derived]\n\
         #[allow(unused_mut, unused_variables, clippy::all)]\n\
         impl<'de{rest}> ::serde::Deserialize<'de> for {name}{ty_g} {{\n\
             fn deserialize<__D: ::serde::Deserializer<'de>>(deserializer: __D)\n\
                 -> ::core::result::Result<Self, __D::Error> {{\n\
                 {body}\n\
             }}\n\
         }}",
        rest = impl_g
            .strip_prefix("<'de")
            .and_then(|s| s.strip_suffix('>'))
            .unwrap_or(""),
    )
}

fn de_struct_body(name: &str, fields: &Fields) -> String {
    match fields {
        Fields::Unit => {
            format!("let _ = deserializer.take_value()?;\n::core::result::Result::Ok({name})")
        }
        Fields::Named(fs) => {
            let inits: Vec<String> = fs
                .iter()
                .map(|f| {
                    let fname = f.name.as_deref().unwrap();
                    if f.skip {
                        return format!("{fname}: ::core::default::Default::default()");
                    }
                    let take = format!("::serde::take_field(&mut __obj, {fname:?}, {name:?})?");
                    match (&f.with, f.default) {
                        (Some(path), _) => format!(
                            "{fname}: {path}::deserialize(::serde::ValueDeserializer::new({take}))?"
                        ),
                        (None, true) => format!(
                            "{fname}: match ::serde::take_field_opt(&mut __obj, {fname:?}) {{\n\
                                 ::core::option::Option::Some(__v) => ::serde::from_value(__v)?,\n\
                                 ::core::option::Option::None => ::core::default::Default::default(),\n\
                             }}"
                        ),
                        (None, false) => format!("{fname}: ::serde::from_value({take})?"),
                    }
                })
                .collect();
            format!(
                "let mut __obj = ::serde::expect_object(deserializer.take_value()?, {name:?})?;\n\
                 let _ = &mut __obj;\n\
                 ::core::result::Result::Ok({name} {{ {} }})",
                inits.join(", ")
            )
        }
        Fields::Tuple(fs) if fs.len() == 1 => format!(
            "::core::result::Result::Ok({name}(::serde::from_value(deserializer.take_value()?)?))"
        ),
        Fields::Tuple(fs) => {
            let inits: Vec<String> = (0..fs.len())
                .map(|_| {
                    format!(
                        "::serde::from_value(__items.next().ok_or(\
                             ::serde::Error::invalid_type({name:?}))?)?"
                    )
                })
                .collect();
            format!(
                "let mut __items = ::serde::expect_array(deserializer.take_value()?, {name:?})?\
                     .into_iter();\n\
                 ::core::result::Result::Ok({name}({}))",
                inits.join(", ")
            )
        }
    }
}

fn de_enum_body(name: &str, variants: &[Variant]) -> String {
    let mut unit_arms = String::new();
    let mut payload_arms = String::new();
    for v in variants {
        let vname = &v.name;
        match &v.fields {
            Fields::Unit => {
                unit_arms.push_str(&format!(
                    "{vname:?} => ::core::result::Result::Ok({name}::{vname}),\n"
                ));
            }
            Fields::Tuple(fs) if fs.len() == 1 => {
                payload_arms.push_str(&format!(
                    "{vname:?} => ::core::result::Result::Ok(\
                         {name}::{vname}(::serde::from_value(__v)?)),\n"
                ));
            }
            Fields::Tuple(fs) => {
                let inits: Vec<String> = (0..fs.len())
                    .map(|_| {
                        format!(
                            "::serde::from_value(__items.next().ok_or(\
                                 ::serde::Error::invalid_type({vname:?}))?)?"
                        )
                    })
                    .collect();
                payload_arms.push_str(&format!(
                    "{vname:?} => {{\n\
                         let mut __items = ::serde::expect_array(__v, {vname:?})?.into_iter();\n\
                         ::core::result::Result::Ok({name}::{vname}({}))\n\
                     }}\n",
                    inits.join(", ")
                ));
            }
            Fields::Named(fs) => {
                let inits: Vec<String> = fs
                    .iter()
                    .map(|f| {
                        let fname = f.name.as_deref().unwrap();
                        format!(
                            "{fname}: ::serde::from_value(\
                                 ::serde::take_field(&mut __obj, {fname:?}, {vname:?})?)?"
                        )
                    })
                    .collect();
                payload_arms.push_str(&format!(
                    "{vname:?} => {{\n\
                         let mut __obj = ::serde::expect_object(__v, {vname:?})?;\n\
                         let _ = &mut __obj;\n\
                         ::core::result::Result::Ok({name}::{vname} {{ {} }})\n\
                     }}\n",
                    inits.join(", ")
                ));
            }
        }
    }
    format!(
        "match deserializer.take_value()? {{\n\
             ::serde::Value::String(__s) => match __s.as_str() {{\n\
                 {unit_arms}\
                 _ => ::core::result::Result::Err(\
                     ::serde::Error::unknown_variant(&__s, {name:?}).into()),\n\
             }},\n\
             ::serde::Value::Object(mut __pairs) => {{\n\
                 if __pairs.len() != 1 {{\n\
                     return ::core::result::Result::Err(\
                         ::serde::Error::invalid_type({name:?}).into());\n\
                 }}\n\
                 let (__k, __v) = __pairs.remove(0);\n\
                 let _ = &__v;\n\
                 match __k.as_str() {{\n\
                     {payload_arms}\
                     _ => ::core::result::Result::Err(\
                         ::serde::Error::unknown_variant(&__k, {name:?}).into()),\n\
                 }}\n\
             }}\n\
             _ => ::core::result::Result::Err(\
                 ::serde::Error::invalid_type({name:?}).into()),\n\
         }}"
    )
}
