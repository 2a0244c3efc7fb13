//! JSON string escaping for the workspace's hand-written JSON-lines
//! records (there is no JSON crate in this workspace).

/// Minimal JSON string escaping: quotes and backslashes are escaped,
/// control characters become `?` (the strings escaped here are
/// identifiers, but stay safe against quotes/backslashes).
pub fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec!['?'],
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    }
}
