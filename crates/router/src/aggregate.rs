//! Splitting a batch answer into its items.

/// Split a `POST /v1/batch` response body (`[\n{...},\n{...}\n]\n`)
/// into its per-line item strings, verbatim. Items are separated by
/// top-level commas; a depth/string-aware scan keeps commas inside
/// nested objects, arrays, and strings intact. Returns `None` when the
/// body is not a well-formed array (truncated, unbalanced, or junk after
/// the close).
///
/// The router relays batches whole and no longer calls this; it stays
/// exported for the benchmark's router layer probe, which times it.
pub fn split_batch_items(body: &str) -> Option<Vec<String>> {
    let trimmed = body.trim();
    let inner = trimmed.strip_prefix('[')?.strip_suffix(']')?;
    if inner.trim().is_empty() {
        return Some(Vec::new());
    }
    let mut items = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut start = 0usize;
    for (i, c) in inner.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '{' | '[' if !in_string => depth += 1,
            '}' | ']' if !in_string => depth = depth.checked_sub(1)?,
            ',' if !in_string && depth == 0 => {
                items.push(inner[start..i].trim().to_string());
                start = i + 1;
            }
            _ => {}
        }
    }
    if depth != 0 || in_string {
        return None;
    }
    items.push(inner[start..].trim().to_string());
    if items.iter().any(|s| s.is_empty()) {
        return None;
    }
    Some(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_serve_format_arrays() {
        // Exactly the framing bikron-serve emits for POST /v1/batch.
        let body =
            "[\n{\"index\": 1},\n{\"edge\": [2, 3], \"present\": true},\n{\"s\": \"a,b\"}\n]\n";
        let items = split_batch_items(body).unwrap();
        assert_eq!(
            items,
            vec![
                "{\"index\": 1}",
                "{\"edge\": [2, 3], \"present\": true}",
                "{\"s\": \"a,b\"}"
            ]
        );
        assert_eq!(split_batch_items("[\n]\n").unwrap().len(), 0);
    }

    #[test]
    fn rejects_malformed_arrays() {
        assert!(split_batch_items("{\"not\": \"array\"}").is_none());
        assert!(split_batch_items("[{\"unbalanced\": 1}").is_none());
        assert!(split_batch_items("[{\"a\": 1},]").is_none());
        assert!(split_batch_items("[{\"open string],\"}").is_none());
    }
}
