//! Delivery modes: the paper's abstraction for personalized dependability.
//!
//! "An XML document for a delivery mode contains one or more communication
//! blocks, each of which contains one or more actions. Each action maps to
//! the friendly name of an address" (§4.1, Figure 4). A block's actions
//! fire together; if the block requires acknowledgement and none arrives
//! within the timeout, the next (backup) block fires.

use simba_sim::SimDuration;
use simba_xml::{Element, XmlError};

/// Whether a block waits for an end-to-end acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckPolicy {
    /// Wait up to the timeout for a user/MAB acknowledgement; fall back to
    /// the next block if none arrives. Only meaningful when the block
    /// contains an IM action (the one channel with acks, §3.1).
    Required(
        /// How long to wait for the acknowledgement.
        SimDuration,
    ),
    /// Fire and forget: the block completes (unconfirmed) as soon as at
    /// least one send is accepted.
    None,
}

/// One communication block: a set of actions fired together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Friendly names of the addresses to fire.
    pub actions: Vec<String>,
    /// Acknowledgement policy.
    pub ack: AckPolicy,
}

impl Block {
    /// A block that requires an ack within `timeout`.
    pub fn acked(actions: Vec<String>, timeout: SimDuration) -> Self {
        Block {
            actions,
            ack: AckPolicy::Required(timeout),
        }
    }

    /// A fire-and-forget block.
    pub fn fire_and_forget(actions: Vec<String>) -> Self {
        Block {
            actions,
            ack: AckPolicy::None,
        }
    }
}

/// Validation / parse errors for delivery modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModeError {
    /// The XML failed to parse.
    Xml(XmlError),
    /// Structural problem (wrong root, missing attribute...).
    Structure(String),
    /// A mode must contain at least one block.
    NoBlocks,
    /// A block must contain at least one action.
    EmptyBlock(
        /// Zero-based block index.
        usize,
    ),
    /// The `ackTimeoutSecs` attribute was not a positive integer.
    BadTimeout(String),
}

impl std::fmt::Display for ModeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModeError::Xml(e) => write!(f, "xml: {e}"),
            ModeError::Structure(s) => write!(f, "bad delivery mode structure: {s}"),
            ModeError::NoBlocks => write!(f, "delivery mode has no blocks"),
            ModeError::EmptyBlock(i) => write!(f, "block {i} has no actions"),
            ModeError::BadTimeout(v) => write!(f, "bad ackTimeoutSecs value {v:?}"),
        }
    }
}

impl std::error::Error for ModeError {}

impl From<XmlError> for ModeError {
    fn from(e: XmlError) -> Self {
        ModeError::Xml(e)
    }
}

/// A named delivery mode: an ordered list of blocks, first is primary,
/// the rest are backups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryMode {
    /// The user-chosen friendly name ("Urgent", "Daytime", ...).
    pub name: String,
    blocks: Vec<Block>,
}

impl DeliveryMode {
    /// Creates a validated mode.
    ///
    /// # Errors
    ///
    /// Fails if there are no blocks or any block has no actions.
    pub fn new(name: impl Into<String>, blocks: Vec<Block>) -> Result<Self, ModeError> {
        if blocks.is_empty() {
            return Err(ModeError::NoBlocks);
        }
        for (i, b) in blocks.iter().enumerate() {
            if b.actions.is_empty() {
                return Err(ModeError::EmptyBlock(i));
            }
        }
        Ok(DeliveryMode {
            name: name.into(),
            blocks,
        })
    }

    /// The paper's flagship mode: "IM-with-acknowledgement followed by
    /// email" (§4.2) — block 1 is the IM address with an ack timeout,
    /// block 2 the email fallback.
    pub fn im_then_email(
        name: impl Into<String>,
        im_address: impl Into<String>,
        email_address: impl Into<String>,
        ack_timeout: SimDuration,
    ) -> Self {
        // Two blocks of one action each: valid by construction, so the
        // fallible `DeliveryMode::new` has nothing to check.
        DeliveryMode {
            name: name.into(),
            blocks: vec![
                Block::acked(vec![im_address.into()], ack_timeout),
                Block::fire_and_forget(vec![email_address.into()]),
            ],
        }
    }

    /// The ordered blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// A delivery mode is never empty (validated at construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Serializes to the Figure 4 XML shape.
    ///
    /// ```xml
    /// <DeliveryMode name="Urgent">
    ///   <Block ackTimeoutSecs="60">
    ///     <Action address="MSN IM"/>
    ///   </Block>
    ///   <Block>
    ///     <Action address="Work email"/>
    ///   </Block>
    /// </DeliveryMode>
    /// ```
    pub fn to_xml(&self) -> String {
        self.to_element().to_xml_pretty()
    }

    /// The `<DeliveryMode>` element [`DeliveryMode::to_xml`] renders.
    pub fn to_element(&self) -> Element {
        let mut root = Element::new("DeliveryMode").with_attr("name", self.name.clone());
        for b in &self.blocks {
            let mut block = Element::new("Block");
            if let AckPolicy::Required(t) = b.ack {
                block = block.with_attr("ackTimeoutSecs", t.as_secs().to_string());
            }
            for action in &b.actions {
                block = block.with_child(Element::new("Action").with_attr("address", action.clone()));
            }
            root = root.with_child(block);
        }
        root
    }

    /// Parses the Figure 4 XML shape.
    ///
    /// # Errors
    ///
    /// Fails on malformed XML, or as [`DeliveryMode::from_element`] does.
    pub fn from_xml(xml: &str) -> Result<Self, ModeError> {
        Self::from_element(&simba_xml::parse(xml)?)
    }

    /// Reads a `<DeliveryMode>` element.
    ///
    /// # Errors
    ///
    /// Fails on a wrong element name, a missing mode name, an action
    /// without an address, a non-numeric/zero ack timeout, or a
    /// structurally empty mode/block.
    pub fn from_element(root: &Element) -> Result<Self, ModeError> {
        if root.name != "DeliveryMode" {
            return Err(ModeError::Structure(format!(
                "expected <DeliveryMode> root, found <{}>",
                root.name
            )));
        }
        let name = root
            .attr("name")
            .ok_or_else(|| ModeError::Structure("<DeliveryMode> missing name".into()))?;
        let mut blocks = Vec::new();
        for block_el in root.children_named("Block") {
            let ack = match block_el.attr("ackTimeoutSecs") {
                Some(v) => {
                    let secs: u64 = v
                        .parse()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| ModeError::BadTimeout(v.to_string()))?;
                    AckPolicy::Required(SimDuration::from_secs(secs))
                }
                None => AckPolicy::None,
            };
            let mut actions = Vec::new();
            for action_el in block_el.children_named("Action") {
                let addr = action_el
                    .attr("address")
                    .ok_or_else(|| ModeError::Structure("<Action> missing address".into()))?;
                actions.push(addr.to_string());
            }
            blocks.push(Block { actions, ack });
        }
        DeliveryMode::new(name, blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn urgent() -> DeliveryMode {
        DeliveryMode::new(
            "Urgent",
            vec![
                Block::acked(
                    vec!["MSN IM".into(), "Cell SMS".into()],
                    SimDuration::from_secs(60),
                ),
                Block::fire_and_forget(vec!["Work email".into()]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_empty() {
        assert_eq!(DeliveryMode::new("x", vec![]), Err(ModeError::NoBlocks));
        assert_eq!(
            DeliveryMode::new("x", vec![Block::fire_and_forget(vec![])]),
            Err(ModeError::EmptyBlock(0))
        );
        assert_eq!(
            DeliveryMode::new(
                "x",
                vec![
                    Block::fire_and_forget(vec!["a".into()]),
                    Block::fire_and_forget(vec![])
                ]
            ),
            Err(ModeError::EmptyBlock(1))
        );
    }

    #[test]
    fn im_then_email_shape() {
        let m = DeliveryMode::im_then_email("Critical", "MSN IM", "Work email", SimDuration::from_secs(90));
        assert_eq!(m.len(), 2);
        assert_eq!(m.blocks()[0].ack, AckPolicy::Required(SimDuration::from_secs(90)));
        assert_eq!(m.blocks()[1].ack, AckPolicy::None);
        assert_eq!(m.blocks()[1].actions, vec!["Work email".to_string()]);
    }

    #[test]
    fn xml_round_trip() {
        let m = urgent();
        let xml = m.to_xml();
        assert_eq!(DeliveryMode::from_xml(&xml).unwrap(), m);
    }

    #[test]
    fn xml_parses_figure4_shape() {
        let m = DeliveryMode::from_xml(
            r#"<DeliveryMode name="Urgent">
                 <Block ackTimeoutSecs="60">
                   <Action address="MSN IM"/>
                   <Action address="Cell SMS"/>
                 </Block>
                 <Block>
                   <Action address="Work email"/>
                 </Block>
               </DeliveryMode>"#,
        )
        .unwrap();
        assert_eq!(m, urgent());
    }

    #[test]
    fn xml_errors() {
        assert!(matches!(DeliveryMode::from_xml("<Wrong/>"), Err(ModeError::Structure(_))));
        assert!(matches!(
            DeliveryMode::from_xml("<DeliveryMode name='x'/>"),
            Err(ModeError::NoBlocks)
        ));
        assert!(matches!(
            DeliveryMode::from_xml("<DeliveryMode name='x'><Block/></DeliveryMode>"),
            Err(ModeError::EmptyBlock(0))
        ));
        assert!(matches!(
            DeliveryMode::from_xml(
                "<DeliveryMode name='x'><Block ackTimeoutSecs='abc'><Action address='a'/></Block></DeliveryMode>"
            ),
            Err(ModeError::BadTimeout(_))
        ));
        assert!(matches!(
            DeliveryMode::from_xml(
                "<DeliveryMode name='x'><Block ackTimeoutSecs='0'><Action address='a'/></Block></DeliveryMode>"
            ),
            Err(ModeError::BadTimeout(_))
        ));
        assert!(matches!(
            DeliveryMode::from_xml(
                "<DeliveryMode name='x'><Block><Action/></Block></DeliveryMode>"
            ),
            Err(ModeError::Structure(_))
        ));
        assert!(matches!(
            DeliveryMode::from_xml("<DeliveryMode><Block><Action address='a'/></Block></DeliveryMode>"),
            Err(ModeError::Structure(_))
        ));
    }
}
